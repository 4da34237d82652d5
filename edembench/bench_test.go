package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"edem/internal/core"
	"edem/internal/stats"
)

// tinySizes is every workload at MG-A1, two test cases, bit stride 16.
func tinySizes() sizes {
	sz := productionSizes()
	sz.pipelineID = "MG-A1"
	sz.campaignIDs = []string{"MG-A1"}
	sz.shrink = func(o *core.Options) { o.TestCases, o.BitStride = 2, 16 }
	sz.setups = 2
	sz.poolBatches = 8
	sz.warmupRequests = 20
	sz.feedbackEvery = 5
	sz.pins = nil
	return sz
}

// runTiny runs one workload at tiny size and seed and returns its
// standard output, the parsed result line and the runner.
func runTiny(t *testing.T, name string, seed uint64, traced bool, sz sizes) (string, *result, *runner) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	var stdout, stderr bytes.Buffer
	r, err := newRunner(name, seed, 300*time.Millisecond, traced, t.TempDir(), sz, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.execute(context.Background(), w)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, stderr.String())
	}
	if err := writeResult(&stdout, res); err != nil {
		t.Fatal(err)
	}
	return stdout.String(), res, r
}

// lastLine parses the result line as a harness reading it would: the last
// line of standard output, with exactly the four keys.
func lastLine(t *testing.T, out string) map[string]json.RawMessage {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("result keys: %s", lines[len(lines)-1])
	}
	return top
}

// reports lists the workload-specific figures each untraced run prints
// by name with their units.
var reports = map[string][]string{
	"run-7z-b2":            {"pipeline_s s"},
	"campaign-journaled":   {"campaign_runs_per_s runs/s", "campaign_round_s s"},
	"serve-binary":         {"serve_rps req/s", "serve_p50_us us", "serve_p99_us us"},
	"serve-json-lifecycle": {"serve_rps req/s", "serve_p50_us us", "serve_p99_us us", "feedback_p50_us us"},
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	env := []string{`"nproc":`, `"gomaxprocs":`, `"go":`, `"cpu":`, `"commit":`, `"seed":1`, `"samples":`}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, res, r := runTiny(t, w.name, 1, traced, tinySizes())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d, problems %q",
					w.name, traced, res.Correct, res.Failed, res.Attempted, r.problems)
			}
			var metrics map[string]metric
			if err := json.Unmarshal(lastLine(t, out)["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			catalog := endToEnd
			if traced {
				catalog = perLayer
			}
			if len(metrics) != len(catalog) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(metrics), len(catalog))
			}
			for _, m := range catalog {
				got, ok := metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, got.Value)
				}
			}
			if !traced {
				printed := map[string]bool{}
				for _, line := range strings.Split(out, "\n") {
					if f := strings.Fields(line); len(f) == 5 && f[0] == "edembench" && f[1] == "metric" {
						printed[f[2]+" "+f[4]] = true
					}
				}
				for _, fig := range reports[w.name] {
					if !printed[fig] {
						t.Errorf("%s: figure %q not printed", w.name, fig)
					}
				}
			}
			for _, field := range env {
				if !strings.Contains(out, field) {
					t.Errorf("%s traced=%v: environment line lacks %s", w.name, traced, field)
				}
			}
			if traced && w.name == "run-7z-b2" {
				if metrics["refine.replay_exact"].Value != 1 {
					t.Errorf("refine replay does not reproduce core.Refine")
				}
				if c := metrics["trace.coverage"].Value; c < 0.9 {
					t.Errorf("traced pipeline coverage %.3f, want >= 0.9", c)
				}
			}
			if c := metrics["trace.coverage"].Value; traced && w.name != "run-7z-b2" && (c <= 0 || c > 1) {
				t.Errorf("%s: traced coverage %.3f, want in (0, 1]", w.name, c)
			}
		}
	}
}

func TestWrongPinCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	zero := strings.Repeat("0", 64)
	sz := tinySizes()
	sz.pins = map[string]string{"arff/MG-A1": zero}
	_, res, r := runTiny(t, "campaign-journaled", 1, false, sz)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a wrong ARFF pin passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	// The wrong dataset's injected runs are all failed; the three
	// bundle exports are not.
	if res.Failed != res.Attempted-int64(sz.setups) {
		t.Errorf("failed %d of %d operations, want every injected run", res.Failed, res.Attempted)
	}
	if !strings.Contains(strings.Join(r.problems, "\n"), "pinned "+zero) {
		t.Errorf("problem not reported: %q", r.problems)
	}

	sz = tinySizes()
	sz.pins = map[string]string{"bundle/MG-A1": zero}
	_, res, _ = runTiny(t, "serve-binary", 1, false, sz)
	if res.Correct || res.Failed != int64(sz.setups) {
		t.Errorf("wrong bundle pin: correct=%v failed=%d, want %d failed exports", res.Correct, res.Failed, sz.setups)
	}

	// A different seed has no pins: the same wrong pin is not consulted.
	_, res, _ = runTiny(t, "serve-binary", 2, false, sz)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("pins applied at an unpinned seed: failed=%d", res.Failed)
	}
}

func TestWrongVerdictCountsAsFailed(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	for _, lifecycle := range []bool{false, true} {
		var stdout, stderr bytes.Buffer
		r, err := newRunner("serve", 1, time.Second, false, t.TempDir(), tinySizes(), &stdout, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		rig, err := r.startServe(context.Background(), r.scratch, -1, lifecycle, 2)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatalf("warm-up failed: %q", r.problems)
		}
		// Expect the opposite of the predicate on one sample of every
		// batch: every served response now disagrees with the reference.
		for i := range rig.pool {
			rig.pool[i].want[3] = !rig.pool[i].want[3]
		}
		before := r.attempted
		if _, err := rig.run(context.Background(), 0, 10, false); err != nil {
			t.Fatal(err)
		}
		rig.close()
		evaluates := int64(2 * 10)
		if r.failed != evaluates {
			t.Errorf("lifecycle=%v: %d of %d operations failed, want the %d evaluates",
				lifecycle, r.failed, r.attempted-before, evaluates)
		}
	}
}

func TestRefineReplayMatchesRefine(t *testing.T) {
	opts := core.DefaultOptions()
	opts.TestCases, opts.BitStride = 2, 16
	ctx := context.Background()
	d, _, err := core.BuildDataset(ctx, "MG-A1", opts)
	if err != nil {
		t.Fatal(err)
	}
	grid := core.RefineGrid(false)
	res, err := core.Refine(ctx, d, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer("test")
	rp, err := replayRefine(ctx, d, grid, opts, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.matches(res) {
		t.Fatalf("replay mean AUCs %v differ from core.Refine's", rp.meanAUC)
	}
	if want := (len(grid) + 1) * opts.Folds; rp.cells != want {
		t.Errorf("replayed %d cells, want %d", rp.cells, want)
	}
	for _, name := range []string{"dataset.store", "sampling.index", "sampling.view", "tree.fit", "tree.classify"} {
		if tr.total(name) <= 0 {
			t.Errorf("no %s spans", name)
		}
	}

	// The equivalence check must be able to fail: another seed's cells
	// score differently.
	other := opts
	other.Seed++
	rp, err = replayRefine(ctx, d, grid, other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.matches(res) {
		t.Error("a replay with another seed matched core.Refine")
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloads[i].name)
		}
	}
}

func TestFlagsRejectBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-binary", "--seconds", "0"},
		{"--workload", "serve-binary", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "core.pipeline", Start: 0, End: 100, Parent: -1},
		{ID: 1, Name: "campaign.run", Start: 10, End: 40, Parent: 0},
		{ID: 2, Name: "core.refine", Start: 30, End: 70, Parent: 0}, // overlaps its sibling
		{ID: 3, Name: "tree.fit", Start: 50, End: 60, Parent: 2},
	}
	got := selfTimes(spans)
	want := []int64{40, 30, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, got[i], want[i])
		}
	}
	if s := summarize(spans); !strings.Contains(s, "core") || !strings.Contains(s, "tree.fit") {
		t.Errorf("summary:\n%s", s)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	var xs []float64
	rng := stats.NewRNG(7)
	for i := 0; i < 100000; i++ {
		ns := int64(20000 + rng.Intn(400000)) // 20µs..420µs
		h.add(ns)
		xs = append(xs, float64(ns))
	}
	for _, p := range []float64{0.5, 0.99} {
		want := percentile(append([]float64(nil), xs...), p)
		if got := h.quantile(p); math.Abs(got-want)/want > 0.008 {
			t.Errorf("p%v: %v, exact %v", p, got, want)
		}
	}
	for _, ns := range []int64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<40 + 5} {
		lo, width := histBounds(histBucket(ns))
		if ns < 1<<40 && (float64(ns) < lo || float64(ns) >= lo+width) {
			t.Errorf("%d lands in bucket [%v, %v)", ns, lo, lo+width)
		}
	}
}
