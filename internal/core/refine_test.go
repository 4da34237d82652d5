package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"edem/internal/dataset"
	"edem/internal/parallel"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// refineDataset builds a small imbalanced two-class dataset directly,
// so Refine's scheduling can be tested without running a campaign.
// Class 1 (the positive/failure class) is the ~20% minority.
func refineDataset(n int, seed uint64) *dataset.Dataset {
	d := dataset.New("refine", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
	}, []string{"ok", "fail"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		class := 0
		if x > 0.8 || (y > 0.9 && x > 0.3) {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, y}, Class: class, Weight: 1})
	}
	return d
}

// TestRefineErrorNoDeadlock is the regression test for the worker-pool
// error path: with every grid cell failing and more cells than workers,
// the old pool deadlocked because a worker exiting on error stopped
// draining the unbuffered job channel while the dispatcher kept
// sending. Refine must instead return the error promptly.
//
// The second case is a fold whose training partition holds no minority
// row, so its SMOTE neighbour index cannot be built. That build runs in
// an index task ahead of the fold's cells, but the error must still
// surface through the first cell that needs the index, with the text it
// had when that cell built the index itself.
func TestRefineErrorNoDeadlock(t *testing.T) {
	parallel.SetBudget(4)
	defer parallel.SetBudget(0)

	// Percent <= 0 makes every Undersampling transform fail.
	failing := make([]SamplingConfig, 20)
	for i := range failing {
		failing[i] = SamplingConfig{Kind: Undersampling, Percent: -5}
	}
	// One positive row: the fold that tests it trains on none.
	onePositive := refineDataset(120, 1)
	for i := range onePositive.Instances {
		onePositive.Instances[i].Class = 0
	}
	onePositive.Instances[17].Class = 1

	cases := []struct {
		name string
		d    *dataset.Dataset
		grid []SamplingConfig
		want string // exact error text; empty accepts any error
	}{
		{"every cell fails", refineDataset(120, 1), failing, ""},
		{"index build fails", onePositive, []SamplingConfig{
			{Kind: Undersampling, Percent: 50},
			{Kind: Smote, Percent: 200, K: 3},
			{Kind: Oversampling, Percent: 200},
		}, "core: refine fold 0 200(O): neighbour index: sampling: no instances of the minority class"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			opts := DefaultOptions()
			opts.Folds = 5
			opts.Workers = workers
			done := make(chan error, 1)
			go func() {
				_, err := Refine(context.Background(), tc.d, tc.grid, opts)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("%s, workers=%d: Refine succeeded", tc.name, workers)
				}
				if tc.want != "" && err.Error() != tc.want {
					t.Fatalf("%s, workers=%d: error %q, want %q", tc.name, workers, err, tc.want)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s, workers=%d: Refine deadlocked on the error path", tc.name, workers)
			}
		}
	}
}

// TestRefineWorkerCountInvariant pins Refine's determinism contract:
// Workers=1 and Workers=8 must produce identical results (per-cell RNGs
// are derived from (seed, fold, config) alone; aggregation is serial).
func TestRefineWorkerCountInvariant(t *testing.T) {
	parallel.SetBudget(8)
	defer parallel.SetBudget(0)

	// The SMOTE grid schedules an index task per fold; the second grid
	// has no SMOTE point, so it has no index tasks and runs the plain
	// fold-major cell order.
	grids := []struct {
		name       string
		grid       []SamplingConfig
		prefetches int64
	}{
		{"smote", []SamplingConfig{
			{Kind: Undersampling, Percent: 50},
			{Kind: Oversampling, Percent: 300},
			{Kind: Smote, Percent: 300, K: 3},
			{Kind: Smote, Percent: 500, K: 5},
		}, 5},
		{"no-smote", []SamplingConfig{
			{Kind: Undersampling, Percent: 50},
			{Kind: Oversampling, Percent: 300},
			{Kind: Undersampling, Percent: 80},
		}, 0},
	}
	for _, g := range grids {
		for _, seed := range []uint64{7, 23} {
			d := refineDataset(200, seed)
			opts := DefaultOptions()
			opts.Seed = seed
			opts.Folds = 5

			opts.Workers = 1
			reg := telemetry.New()
			serial, err := Refine(telemetry.WithRegistry(context.Background(), reg), d, g.grid, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Serially each index task runs before any cell of its fold,
			// so it always builds the index itself.
			if got := reg.Snapshot().Counters["refine.index_prefetches"]; got != g.prefetches {
				t.Errorf("%s seed %d: refine.index_prefetches = %d, want %d", g.name, seed, got, g.prefetches)
			}
			opts.Workers = 8
			par, err := Refine(context.Background(), d, g.grid, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial.Evaluated, par.Evaluated) {
				t.Errorf("%s seed %d: Workers=1 and Workers=8 grid evaluations differ", g.name, seed)
			}
			if serial.Best != par.Best {
				t.Errorf("%s seed %d: winning config differs: %+v vs %+v", g.name, seed, serial.Best, par.Best)
			}
		}
	}
}

// TestClaimOrder pins the refinement schedule: with no SMOTE point in
// the grid the claim order is the plain fold-major cell order; with
// one, fold 0's index task comes first and fold f+1's sits midway
// through fold f's cells, and every fold has exactly one index task.
func TestClaimOrder(t *testing.T) {
	const folds, cfgs = 4, 7
	plain := claimOrder(folds, cfgs, false)
	if len(plain) != folds*cfgs {
		t.Fatalf("plain order has %d tasks, want %d", len(plain), folds*cfgs)
	}
	for i, task := range plain {
		if task != (refineTask{fold: i / cfgs, cfg: i % cfgs}) {
			t.Fatalf("plain task %d = %+v, want fold-major cell order", i, task)
		}
	}

	order := claimOrder(folds, cfgs, true)
	var cellsOnly []refineTask
	indexAt := map[int]int{}
	for i, task := range order {
		if task.cfg == indexTask {
			if _, dup := indexAt[task.fold]; dup {
				t.Fatalf("fold %d has two index tasks", task.fold)
			}
			indexAt[task.fold] = i
			continue
		}
		cellsOnly = append(cellsOnly, task)
	}
	if !reflect.DeepEqual(cellsOnly, plain) {
		t.Fatal("index tasks reorder the cells")
	}
	if len(indexAt) != folds {
		t.Fatalf("%d index tasks, want one per fold (%d)", len(indexAt), folds)
	}
	if indexAt[0] != 0 {
		t.Fatalf("fold 0's index task at %d, want first", indexAt[0])
	}
	for f := 0; f+1 < folds; f++ {
		prev := order[indexAt[f+1]-1]
		if prev != (refineTask{fold: f, cfg: cfgs/2 - 1}) {
			t.Fatalf("fold %d's index task follows %+v, want fold %d's cell %d", f+1, prev, f, cfgs/2-1)
		}
	}
}
