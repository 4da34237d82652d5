package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric of BENCHMARK.json with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports. Each workload
// has one unit operation — a methodology run on run-7z-b2, an injected
// run on campaign-journaled, an evaluate request on the serve workloads
// — and the throughput and latency figures are about that operation,
// except that on campaign-journaled the latency is per round (all three
// campaigns, replays and ARFF writes) because single runs are not timed.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics every traced run reports; a layer the
// workload never calls reports 0.
var perLayer = []metricDef{
	{"campaign.busy_s", "s"},
	{"campaign.runs_per_s.7z", "1/s"},
	{"campaign.runs_per_s.fg", "1/s"},
	{"campaign.runs_per_s.mg", "1/s"},
	{"campaign.forked", "count"},
	{"campaign.fallbacks", "count"},
	{"campaign.shards", "count"},
	{"campaign.retries", "count"},
	{"campaign.skipped", "count"},
	{"campaign.torn_tails", "count"},
	{"campaign.journal_bytes", "bytes"},
	{"campaign.replay_s", "s"},
	{"dataset.preprocess_s", "s"},
	{"dataset.instances", "count"},
	{"dataset.arff_write_s", "s"},
	{"dataset.store_s", "s"},
	{"eval.baseline_s", "s"},
	{"core.refine_s", "s"},
	{"core.final_fit_s", "s"},
	{"refine.cells", "count"},
	{"refine.parallel_efficiency", "ratio"},
	{"refine.replay_exact", "bool"},
	{"sampling.index_s", "s"},
	{"sampling.view_s", "s"},
	{"sampling.minority_rows", "count"},
	{"sampling.synthetic_rows", "count"},
	{"tree.fit_s", "s"},
	{"tree.classify_s", "s"},
	{"tree.nodes", "count"},
	{"predicate.extract_s", "s"},
	{"predicate.eval_us", "us"},
	{"predicate.atoms", "count"},
	{"serve.encode_us", "us"},
	{"serve.wait_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.server_compute_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.requests", "count"},
	{"serve.sheds", "count"},
	{"lifecycle.feedback_us", "us"},
	{"lifecycle.observe_us", "us"},
	{"lifecycle.records", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which it sorts in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p*float64(len(xs))+0.999999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median is percentile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// hist counts durations in log-linear buckets — exact below 64ns, then
// 64 buckets per power of two — so a quantile read from it is within
// 0.8% of the true one. Its size is fixed, so recording a measurement
// never grows the heap the measured code shares with the benchmark.
type hist struct {
	counts [histBuckets]uint32
	n      int64
	sum    int64 // ns
}

const histBuckets = 64 * 36 // up to 2^40ns, about 18 minutes

func histBucket(ns int64) int {
	if ns < 64 {
		return int(max(ns, 0))
	}
	e := bits.Len64(uint64(ns)) - 7
	return min((e+1)*64+int(ns>>e)-64, histBuckets-1)
}

// histBounds returns the range [lo, lo+width) of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < 64 {
		return float64(i), 1
	}
	e := i/64 - 1
	return float64(int64(64+i%64) << e), float64(int64(1) << e)
}

// mean returns the mean in nanoseconds, 0 when empty.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

func (h *hist) add(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the nearest-rank p-quantile in nanoseconds,
// interpolated by rank within its bucket.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(math.Ceil(p*float64(h.n)), 1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-cum-0.5)/float64(c)
		}
		cum += float64(c)
	}
	return 0
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// rssSampler samples the process's resident set every interval until
// stopped.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

func startRSS(interval time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if mb, ok := residentMB(); ok {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median and the largest
// sample.
func (s *rssSampler) finish() (med, peak float64) {
	close(s.stop)
	<-s.done
	if len(s.samples) == 0 {
		return 0, 0
	}
	return median(s.samples), percentile(s.samples, 1)
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}

// env describes the machine and the code a result was measured on.
type env struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
	Samples    int     `json:"samples"`
	ErrorFrac  float64 `json:"error_frac"`
	StealFrac  float64 `json:"steal_frac"` // share of CPU time a hypervisor took from the machine during the run
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
}

func collectEnv(r *runner) *env {
	return &env{
		Workload:   r.workload,
		Seed:       r.seed,
		Traced:     r.traced,
		Seconds:    r.window.Seconds(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit(),
		Source:     sourceHash(),
	}
}

func printEnv(w io.Writer, e *env) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "edembench env %s\n", line)
	return err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit names the checked-out commit, or "none" outside a git
// work tree (the source hash then identifies the code). The search for
// a repository stops at the working directory.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under the working
// directory (the repository the benchmark runs from), skipping hidden
// directories such as the build cache, so two
// results can be matched to the code that produced them.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTicks reads the machine-wide CPU time counters from /proc/stat and
// returns the total and the steal ticks (0, 0 where unavailable).
func cpuTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user .. steal; guest time is already counted in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
