package mp3gain_test

import (
	"context"
	"math"
	"testing"

	"edem/internal/propane"
	"edem/internal/targets/mp3gain"
)

func forkTarget() mp3gain.System {
	return mp3gain.System{TracksPerCase: 4, SamplesPerTrack: 800}
}

func forkSpec(module string, inject, sample propane.Location) propane.Spec {
	return propane.Spec{
		Dataset:        "MG-FORK",
		Module:         module,
		InjectAt:       inject,
		SampleAt:       sample,
		InjectionTimes: []int{1, 3},
		TestCases:      2,
		Seed:           42,
		BitStride:      8,
	}
}

func sameRecords(t *testing.T, got, want []propane.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("record count %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		same := g.TestCase == w.TestCase && g.Var == w.Var && g.Bit == w.Bit &&
			g.InjectionTime == w.InjectionTime && g.Injected == w.Injected &&
			g.Sampled == w.Sampled && g.Failure == w.Failure &&
			g.Crashed == w.Crashed && g.FlipErr == w.FlipErr &&
			len(g.State) == len(w.State)
		if same {
			for k := range g.State {
				if math.Float64bits(g.State[k]) != math.Float64bits(w.State[k]) {
					same = false
					break
				}
			}
		}
		if !same {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestForkEquivalence pins the fast path bit-identical to the slow
// path across both instrumented modules and all location triples.
func TestForkEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		name           string
		module         string
		inject, sample propane.Location
	}{
		{"ga-entry-entry", mp3gain.ModuleGAnalysis, propane.Entry, propane.Entry},
		{"ga-entry-exit", mp3gain.ModuleGAnalysis, propane.Entry, propane.Exit},
		{"rg-entry-exit", mp3gain.ModuleRGain, propane.Entry, propane.Exit},
		{"rg-exit-exit", mp3gain.ModuleRGain, propane.Exit, propane.Exit},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			spec := forkSpec(cfg.module, cfg.inject, cfg.sample)
			// Hiding Forkable behind the embedded interface forces the
			// slow path, the reference the fast path must reproduce.
			slow, err := propane.Run(context.Background(), struct{ propane.Target }{forkTarget()}, spec)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := propane.Run(context.Background(), forkTarget(), spec)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, fast.Records, slow.Records)
		})
	}
}

// TestSnapshotResume: a fault-free run resumed from any snapshot
// position reproduces the golden outcome, and running a clone leaves
// the base snapshot untouched.
func TestSnapshotResume(t *testing.T) {
	target := forkTarget()
	tc := target.TestCases(1, 99)[0]
	golden, err := propane.RunGolden(target, tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, module := range []string{mp3gain.ModuleGAnalysis, mp3gain.ModuleRGain} {
		for _, at := range []propane.Location{propane.Entry, propane.Exit} {
			for activation := 1; activation <= 4; activation++ {
				st, ok, err := target.Snapshot(tc, module, at, activation)
				if err != nil || !ok {
					t.Fatalf("Snapshot(%s,%v,%d): ok=%v err=%v", module, at, activation, ok, err)
				}
				before := st.Digest()
				out, err := target.RunFrom(st.Clone(), propane.NopProbe{}, nil)
				if err != nil {
					t.Fatalf("RunFrom(%s,%v,%d): %v", module, at, activation, err)
				}
				if target.Failed(tc, golden, out) {
					t.Fatalf("resumed run from (%s,%v,%d) diverged from golden", module, at, activation)
				}
				if st.Digest() != before {
					t.Fatalf("running a clone mutated the base snapshot at (%s,%v,%d)", module, at, activation)
				}
			}
		}
	}
	// Activations beyond the track count are unreachable, not errors.
	if _, ok, err := target.Snapshot(tc, mp3gain.ModuleRGain, propane.Entry, 5); ok || err != nil {
		t.Fatalf("activation beyond the run should be unreachable: ok=%v err=%v", ok, err)
	}
}
