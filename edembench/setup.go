package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"edem/internal/core"
	"edem/internal/dataset"
	"edem/internal/predicate"
	"edem/internal/serve"
)

// sizes fixes how much work each workload does. productionSizes is the
// benchmark; the tests shrink it.
type sizes struct {
	pipelineID  string   // run-7z-b2's dataset
	campaignIDs []string // campaign-journaled's datasets, one per target system
	// shrink, when set, scales the pipeline and campaign options down
	// (tests only; the benchmark runs core.DefaultOptions()).
	shrink func(*core.Options)

	setups         int // set-up repetitions; setup_s is their median
	poolBatches    int // distinct request batches drawn per run
	warmupRequests int // per connection, before timing
	feedbackEvery  int // evaluates per feedback write on serve-json-lifecycle

	// pins maps artefact names to their SHA-256 at seed 1.
	pins map[string]string
}

// The bundle every set-up exports and the serve workloads load is
// exportID at exportScale test cases and bit stride exportStride, as
// `edem export` makes it; each evaluate request carries batchSize samples.
const (
	exportID     = "MG-A1"
	exportScale  = 2
	exportStride = 16
	batchSize    = 64
)

func productionSizes() sizes {
	return sizes{
		pipelineID:     "7Z-B2",
		campaignIDs:    []string{"7Z-B2", "FG-A2", "MG-A1"},
		setups:         5,
		poolBatches:    256,
		warmupRequests: 200,
		feedbackEvery:  20,
		pins:           seed1Pins,
	}
}

// seed1Pins are the SHA-256 digests of the artefacts at seed 1, taken
// from `edem run -dataset 7Z-B2 -save`, `edem inject -dataset ID -arff`
// and `edem export -dataset MG-A1 -scale 2 -stride 16` before this
// benchmark existed. A change that alters any of them changes what the
// methodology outputs.
var seed1Pins = map[string]string{
	"predicate/7Z-B2": "8c754b9390f97c4c950bca93840c481a2e27bd33f75d6cf57f0f2c82cb3a94b2",
	"arff/7Z-B2":      "f0d884a4140e03503f7d7ed547d1298b65af4dba08eca0ad5d7a421b386cce73",
	"arff/FG-A2":      "11140cc361afdfcf65df555bb3f15edf0545d5774a2a61d7f9f14190c33a3186",
	"arff/MG-A1":      "20fd96505567440f1aa4a9dacffe2292768bcdcb31aa5ba2f90750e2bf657c45",
	"bundle/MG-A1":    "eb0ac9f57caaee6ae8cb5edd27cb05553bd17a30e55c213c32d487a3256bc3ce",
}

// checkPin compares an artefact with its pin. It returns false only on
// a mismatch; seeds and sizes without pins pass.
func (r *runner) checkPin(name string, data []byte) bool {
	if r.sz.pins == nil || r.seed != 1 {
		return true
	}
	want, ok := r.sz.pins[name]
	if !ok {
		return true
	}
	if got := sha256Hex(data); got != want {
		r.problems = append(r.problems, fmt.Sprintf("%s: sha256 %s, pinned %s", name, got, want))
		return false
	}
	return true
}

// opts returns the options of the measured pipeline and campaigns:
// core.DefaultOptions() with the workload seed.
func (r *runner) opts() core.Options {
	o := core.DefaultOptions()
	o.Seed = r.seed
	if r.sz.shrink != nil {
		r.sz.shrink(&o)
	}
	return o
}

// exported is the set-up's product: the bundle the serve workloads load
// and the dataset its detector was learnt from.
type exported struct {
	bundle *serve.Bundle
	path   string
	pred   *predicate.Predicate
	data   *dataset.Dataset
}

// exportBundle does what `edem export -dataset MG-A1 -scale 2 -stride 16`
// does — Steps 1-4 from dataset ID to predicate, packaged as a bundle —
// and writes the bundle into dir. It is one pipeline operation.
func (r *runner) exportBundle(ctx context.Context, dir string, parent int) (*exported, error) {
	o := core.DefaultOptions()
	o.Seed = r.seed
	o.TestCases = exportScale
	o.BitStride = exportStride
	id := exportID
	info, err := core.Info(id, o)
	if err != nil {
		return nil, err
	}
	s := r.tr.start("core.export", parent)
	d, camp, err := core.BuildDataset(ctx, id, o)
	if err != nil {
		return nil, err
	}
	rep, err := core.RunMethodologyOn(ctx, id, d, camp.Failures(), core.RefineGrid(false), o)
	if err != nil {
		return nil, err
	}
	r.tr.end(s)
	b := &serve.Bundle{Version: serve.BundleVersion, Detectors: []serve.BundleEntry{{
		ID:        id,
		Module:    info.Module,
		Location:  info.SampleAt.String(),
		Predicate: rep.Predicate,
	}}}
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "bundle.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	r.attempted++
	if !r.checkPin("bundle/"+id, buf.Bytes()) {
		r.failed++
	}
	return &exported{bundle: b, path: path, pred: rep.Predicate, data: d}, nil
}

// setUpExport is the set-up of the batch workloads: the bundle export
// alone, which warms every layer their measured phase calls.
func setUpExport(ctx context.Context, r *runner) error {
	_, release, err := setUp(ctx, r, func(ctx context.Context, dir string, parent int) (struct{}, func(), error) {
		_, err := r.exportBundle(ctx, dir, parent)
		return struct{}{}, func() {}, err
	})
	if err == nil {
		release()
	}
	return err
}

// setUp runs prepare sz.setups times and records the median as
// setup_s. Every repetition but the last is torn down with its
// returned release function; the last one's product is returned.
func setUp[T any](ctx context.Context, r *runner, prepare func(ctx context.Context, dir string, parent int) (T, func(), error)) (T, func(), error) {
	var zero T
	var times []float64
	for i := 0; i < r.sz.setups; i++ {
		dir := filepath.Join(r.scratch, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return zero, nil, err
		}
		root := r.tr.start("setup", -1)
		start := time.Now()
		v, release, err := prepare(ctx, dir, root)
		times = append(times, time.Since(start).Seconds())
		r.tr.end(root)
		if err != nil {
			return zero, nil, err
		}
		if i == r.sz.setups-1 {
			r.e2e["setup_s"] = median(times)
			r.rss = startRSS(100 * time.Millisecond)
			return v, release, nil
		}
		release()
		if err := os.RemoveAll(dir); err != nil {
			return zero, nil, err
		}
	}
	return zero, nil, fmt.Errorf("no set-up repetitions configured")
}
