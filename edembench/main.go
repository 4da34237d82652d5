// Command edembench is the repository benchmark. It drives the
// methodology pipeline, journaled fault-injection campaigns and detector
// serving through their public Go APIs, checks every output it can, and
// prints one JSON result line:
//
//	{"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the run is repeated with spans around every call the
// benchmark makes into a layer, and the metrics are the per-layer ones.
// README.md describes the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(ctx context.Context, r *runner) error
}

var workloads = []workload{
	{"run-7z-b2", runPipeline},
	{"campaign-journaled", runCampaigns},
	{"serve-binary", func(ctx context.Context, r *runner) error { return runServe(ctx, r, false) }},
	{"serve-json-lifecycle", func(ctx context.Context, r *runner) error { return runServe(ctx, r, true) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edembench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for run scratch (journals) and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "edembench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	r, err := newRunner(w.name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, productionSizes(), stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "edembench:", err)
		return 1
	}
	res, err := r.execute(context.Background(), w)
	if err == nil {
		err = writeResult(stdout, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "edembench:", err)
		return 1
	}
	return 0
}

// writeResult prints the result as the last line of standard output.
func writeResult(w io.Writer, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner carries one run's settings and accumulates its outcome.
type runner struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	sz       sizes
	scratch  string // removed when the run ends
	traceDir string
	tr       *tracer // nil on untraced runs
	stdout   io.Writer
	log      io.Writer

	attempted, failed int64
	problems          []string
	samples           int // timed operations behind the latency figures
	rss               *rssSampler
	e2e               map[string]float64
	layer             map[string]float64
}

func newRunner(name string, seed uint64, window time.Duration, traced bool, out string, sz sizes, stdout, stderr io.Writer) (*runner, error) {
	// One process generates all load; its parallelism never exceeds the
	// machine's cores.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(out, name+"-")
	if err != nil {
		return nil, err
	}
	r := &runner{
		workload: name, seed: seed, window: window, traced: traced, sz: sz,
		scratch: scratch, traceDir: filepath.Join(out, "trace"),
		stdout: stdout, log: stderr,
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if traced {
		r.tr = newTracer(name)
	}
	return r, nil
}

// execute runs the workload and assembles the result. Operational
// errors (a layer returning an error) abort the run; wrong outputs are
// counted as failed operations and reported, never hidden.
func (r *runner) execute(ctx context.Context, w workload) (*result, error) {
	defer os.RemoveAll(r.scratch)
	env := collectEnv(r)
	total0, steal0 := cpuTicks()
	err := w.run(ctx, r)
	if total1, steal1 := cpuTicks(); total1 > total0 {
		env.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	if r.rss != nil {
		med, peak := r.rss.finish()
		r.e2e["rss_mb"] = med
		r.report("rss_peak_mb", peak, "MB")
	}
	if err != nil {
		return nil, err
	}
	env.Samples = r.samples
	env.ErrorFrac = float64(r.failed) / float64(max(r.attempted, 1))
	if err := printEnv(r.stdout, env); err != nil {
		return nil, err
	}
	for _, p := range r.problems {
		fmt.Fprintln(r.log, "edembench: check failed:", p)
	}
	if r.traced {
		if err := r.tr.write(r.traceDir, r.seed, r.log); err != nil {
			return nil, err
		}
	}
	res := &result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	catalog, values := endToEnd, r.e2e
	if r.traced {
		catalog, values = perLayer, r.layer
	}
	for _, m := range catalog {
		v, ok := values[m.name]
		if !ok {
			// A layer the workload never calls did no work.
			if !r.traced {
				return nil, fmt.Errorf("workload %s measured no %s", r.workload, m.name)
			}
			v = 0
		}
		if v != v || v > 1e300 || v < -1e300 {
			return nil, fmt.Errorf("metric %s is not finite", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// fail records one failed check covering ops operations.
func (r *runner) fail(ops int64, format string, args ...any) {
	r.failed += ops
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// report prints one workload-specific figure by name with its unit, on
// its own line before the result.
func (r *runner) report(name string, value float64, unit string) {
	fmt.Fprintf(r.stdout, "edembench metric %s %.6g %s\n", name, value, unit)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
