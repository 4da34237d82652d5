package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.8127, 0.8031, 0.8342, 0.7999, 0.8200, 0.8115, 0.8450, 0.8011, 0.8093, 0.8177}, [3]float64{0.8026, 0.8121, 0.82355}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.xs, i, got, c.want[i])
			}
		}
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

var base = []float64{100, 101, 99, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3}

func TestCompareVerdicts(t *testing.T) {
	lowerTime := metricSpec{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	higherRate := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	noisy := []float64{100, 140, 70, 120, 90, 60, 130, 80, 110, 100}
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           verdict
	}{
		{"faster wins every pair", lowerTime, base, scaled(base, 0.8), verdictGain},
		{"higher rate wins every pair", higherRate, base, scaled(base, 1.2), verdictGain},
		{"same code", lowerTime, base, base, verdictWithin},
		{"slower past the bound", lowerTime, base, scaled(base, 1.2), verdictRegression},
		{"slower within the bound", lowerTime, base, scaled(base, 1.02), verdictWithin},
		{"lower rate past the bound", higherRate, base, scaled(base, 0.8), verdictRegression},
		{"spread wider than the bound", lowerTime, noisy, scaled(noisy, 1.05), verdictUnresolved},
	} {
		r := compare(c.m, c.parent, c.change)
		if r.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%s)", c.name, r.verdict, c.want, r)
		}
		if s := r.String(); !strings.Contains(s, "base: parent median") {
			t.Errorf("%s: ratio printed without its base: %s", c.name, s)
		}
	}

	// Nine wins of ten is enough; eight is not.
	change := scaled(base, 0.8)
	change[0], change[1] = 200, 200
	if r := compare(lowerTime, base, change); r.verdict == verdictGain {
		t.Errorf("8/10 wins claimed a gain: %s", r)
	}
	change[1] = base[1] * 0.8
	if r := compare(lowerTime, base, change); r.verdict != verdictGain {
		t.Errorf("9/10 wins with a clear gap not claimed: %s", r)
	}
}

func TestSpreadLine(t *testing.T) {
	m := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15}
	if s := spreadLine(m, base); !strings.Contains(s, ": ok  runs [") {
		t.Errorf("steady runs: %s", s)
	}
	if s := spreadLine(m, []float64{1, 2, 3, 4, 5}); !strings.Contains(s, "exceeds bound") {
		t.Errorf("wild runs: %s", s)
	}
}

// TestRunAlternatesSides drives the command end to end against two
// stand-in trees whose "benchmark" is a shell script printing a fixed
// result, and checks the report and the exit status.
func TestRunAlternatesSides(t *testing.T) {
	tree := func(value string) string {
		dir := t.TempDir()
		spec := `{"command": ["sh", "bench.sh"], "run_seconds": 1,
		  "workloads": [{"name": "w"}],
		  "end_to_end": [{"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`
		script := "echo \"$*\" >> calls.log\necho '{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"op_p50_ms\": {\"value\": " + value + ", \"unit\": \"ms\"}}}'\n"
		for name, body := range map[string]string{"BENCHMARK.json": spec, "bench.sh": script} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	parent, change := tree("10"), tree("12")
	var out bytes.Buffer
	code, err := run([]string{"-parent", parent, "-change", change, "-pairs", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), string(verdictRegression)) {
		t.Errorf("a 20%% slower change: exit %d\n%s", code, out.String())
	}
	calls, err := os.ReadFile(filepath.Join(change, "calls.log"))
	if err != nil {
		t.Fatal(err)
	}
	want := "--workload w --seed 1 --seconds 1 --trace 0\n--workload w --seed 2 --seconds 1 --trace 0\n--workload w --seed 3 --seconds 1 --trace 0\n"
	if string(calls) != want {
		t.Errorf("change tree ran:\n%s\nwant:\n%s", calls, want)
	}

	out.Reset()
	if code, err := run([]string{"-change", change, "-pairs", "3"}, &out); err != nil || code != 0 ||
		!strings.Contains(out.String(), "IQR") {
		t.Errorf("spread mode: exit %d, err %v\n%s", code, err, out.String())
	}
}
