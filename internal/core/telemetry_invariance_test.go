package core

import (
	"context"
	"reflect"
	"testing"

	"edem/internal/telemetry"
)

// TestTelemetryCountersWorkerInvariant is the telemetry analogue of the
// pipeline's determinism guarantee: the counters accumulated across
// concurrent workers must equal the serial counts for any -workers
// value. Durations and allocation deltas legitimately vary with
// scheduling, so the property covers counters, histogram counts and
// phase counts — everything that counts work rather than measuring it.
// The refine index wait histogram and prefetch counter are left out:
// they record which of two concurrent tasks reached a fold's index
// first, which depends on scheduling.
func TestTelemetryCountersWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	type counts struct {
		Counters  map[string]int64
		HistCount map[string]int64
		PhaseN    map[string]int64
	}
	const folds = 10
	runAt := func(workers int) counts {
		opts := DefaultOptions()
		opts.TestCases = 2
		opts.BitStride = 16
		opts.Workers = workers
		opts.Folds = folds
		// A context-local registry isolates this run from the process
		// default and from the other worker counts.
		reg := telemetry.New()
		ctx := telemetry.WithRegistry(context.Background(), reg)
		d, _, err := BuildDataset(ctx, "MG-B1", opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if _, err := Baseline(ctx, d, opts); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Two undersampling points plus an oversampling and a SMOTE point,
		// so the store/view counters (refine.store_builds,
		// refine.view_hits, refine.merge_synthetic_rows) all accumulate.
		grid := RefineGrid(false)
		sub := append(grid[:2:2], grid[4:6]...)
		if _, err := Refine(ctx, d, sub, opts); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		snap := reg.Snapshot()
		// Index waits and prefetches measure how concurrent tasks met,
		// not how much work was done: at one worker nothing ever waits.
		delete(snap.Counters, "refine.index_prefetches")
		delete(snap.Hists, "refine.index_wait_ns")
		c := counts{
			Counters:  snap.Counters,
			HistCount: map[string]int64{},
			PhaseN:    map[string]int64{},
		}
		for name, h := range snap.Hists {
			c.HistCount[name] = h.Count
		}
		for path, p := range snap.Phases {
			c.PhaseN[path] = p.Count
		}
		return c
	}

	serial := runAt(1)
	if len(serial.Counters) == 0 {
		t.Fatal("serial run recorded no counters")
	}
	for _, name := range []string{"refine.store_builds", "refine.view_hits", "refine.merge_synthetic_rows"} {
		if serial.Counters[name] <= 0 {
			t.Errorf("counter %s not accumulated: %d", name, serial.Counters[name])
		}
	}
	// Every fold's store and index is dropped after its last cell.
	if got := serial.Counters["refine.folds_released"]; got != folds {
		t.Errorf("refine.folds_released = %d, want one per fold (%d)", got, folds)
	}
	for _, workers := range []int{2, 8} {
		par := runAt(workers)
		if !reflect.DeepEqual(serial.Counters, par.Counters) {
			t.Errorf("counters diverge at workers=%d:\nserial: %v\npar:    %v",
				workers, serial.Counters, par.Counters)
		}
		if !reflect.DeepEqual(serial.HistCount, par.HistCount) {
			t.Errorf("histogram counts diverge at workers=%d:\nserial: %v\npar:    %v",
				workers, serial.HistCount, par.HistCount)
		}
		if !reflect.DeepEqual(serial.PhaseN, par.PhaseN) {
			t.Errorf("phase counts diverge at workers=%d:\nserial: %v\npar:    %v",
				workers, serial.PhaseN, par.PhaseN)
		}
	}
}
