// Package core implements the paper's four-step methodology (Figure 1):
//
//  1. Fault injection analysis — run a PROPANE campaign against a
//     target system (internal/propane, internal/targets).
//  2. Algorithm selection & preprocessing — convert the campaign log to
//     a mining dataset and prepare imbalance handling.
//  3. Data mining / model generation — induce a baseline C4.5 tree and
//     evaluate it with stratified 10-fold cross-validation (Table III).
//  4. Model refinement — grid-search sampling levels and SMOTE
//     neighbour counts for the best mean AUC (Table IV), then extract
//     the winning tree as a detector predicate.
//
// It also defines the 18 fault-injection dataset configurations of
// Table II and the re-validation procedure of §VII-D.
//
// Concurrency: the package fans work out internally (datasets, folds,
// grid cells, campaign shards) through the shared internal/parallel
// budget and is safe to call from multiple goroutines with distinct
// Options values; results are deterministic and worker-count-invariant.
// Options is a value type — each call owns its copy. Journaled campaign
// state (Options.Journal) follows internal/campaign's contract: one
// running campaign per journal directory.
package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"edem/internal/bitflip"
	"edem/internal/campaign"
	"edem/internal/dataset"
	"edem/internal/propane"
	"edem/internal/targets/flightgear"
	"edem/internal/targets/kvstore"
	"edem/internal/targets/mp3gain"
	"edem/internal/targets/sevenzip"
	"edem/internal/telemetry"
)

// Options scales and seeds the experiment suite. The paper's campaigns
// (250 test cases, every bit position) take CPU-days; the defaults here
// preserve the structure (all 18 datasets, every variable, 3-4 injection
// times, stratified bit coverage) at laptop scale. Paper-scale runs are
// a matter of raising TestCases and setting BitStride to 1.
type Options struct {
	// Seed drives workload generation and fold assignment.
	Seed uint64
	// Workers bounds the parallelism of every pipeline stage —
	// campaigns, CV folds, refinement cells, table rows all share one
	// budget (0 = the process-wide default, all cores). Results never
	// depend on it.
	Workers int
	// BitStride samples every n-th bit position (default 2; the paper
	// uses 1).
	BitStride int
	// TestCases is the number of test cases for the 7-Zip and Mp3Gain
	// campaigns (default 10; the paper uses 250). FlightGear always
	// uses the paper's 9-case grid.
	TestCases int
	// Folds is the cross-validation fold count (default 10).
	Folds int

	// Journal, when set, is the root checkpoint directory of the
	// campaign engine: each dataset journals to Journal/<ID>, a killed
	// run resumes from its last checkpoint, and a complete journal
	// rebuilds the dataset without executing a single target run.
	Journal string
	// Resume permits continuing existing journals under Journal; the
	// table/dataset consumers set it implicitly, `edem campaign`
	// requires the explicit -resume flag.
	Resume bool
	// Incremental relaxes the resume plan-identity check to a
	// per-section diff: after a spec or target change, only shards
	// whose test-case sections changed re-run (campaign.Config.
	// Incremental). Requires Resume.
	Incremental bool
	// Shards overrides the engine's checkpoint shard count (0 = auto).
	Shards int
	// RunTimeout bounds one target run attempt (0 = no watchdog).
	RunTimeout time.Duration
	// MaxRetries is the number of extra attempts for an infrastructure
	// failure (hang, engine panic) before a cell is skipped.
	MaxRetries int

	// Fault selects the fault model for every campaign built from these
	// options (transient single bit-flip by default; see bitflip.Fault).
	// The zero value reproduces today's campaigns byte-for-byte.
	Fault bitflip.Fault
}

// CampaignConfig derives the engine configuration for one dataset. The
// journal root fans out to one directory per dataset so an 18-dataset
// table sweep is 18 independently resumable journals.
func (o Options) CampaignConfig(id string) campaign.Config {
	cfg := campaign.Config{
		Shards:     o.Shards,
		Timeout:    o.RunTimeout,
		MaxRetries: o.MaxRetries,
	}
	if o.Journal != "" {
		cfg.Journal = filepath.Join(o.Journal, id)
		cfg.Resume = o.Resume
		cfg.Incremental = o.Incremental
	}
	return cfg
}

// DefaultOptions returns the laptop-scale defaults.
func DefaultOptions() Options {
	return Options{Seed: 1, BitStride: 2, TestCases: 10, Folds: 10}
}

func (o Options) bitStride() int {
	if o.BitStride <= 0 {
		return 2
	}
	return o.BitStride
}

func (o Options) testCases() int {
	if o.TestCases <= 0 {
		return 10
	}
	return o.TestCases
}

func (o Options) folds() int {
	if o.Folds <= 0 {
		return 10
	}
	return o.Folds
}

// DatasetInfo describes one Table II row.
type DatasetInfo struct {
	ID       string
	Target   string
	Module   string
	InjectAt propane.Location
	SampleAt propane.Location
}

// locationTriple returns the (inject, sample) pair for suffix 1..3:
// 1 = Entry/Entry, 2 = Entry/Exit, 3 = Exit/Exit (Table II).
func locationTriple(n int) (propane.Location, propane.Location) {
	switch n {
	case 1:
		return propane.Entry, propane.Entry
	case 2:
		return propane.Entry, propane.Exit
	case 3:
		return propane.Exit, propane.Exit
	default:
		return 0, 0
	}
}

// systems maps dataset prefixes to target constructors and module roles.
var systems = map[string]struct {
	target  func(Options) propane.Target
	modules map[byte]string // 'A'/'B' -> module name
	times   func(Options) []int
	cases   func(Options) int
}{
	"7Z": {
		target: func(Options) propane.Target { return sevenzip.System{} },
		modules: map[byte]string{
			'A': sevenzip.ModuleFHandle,
			'B': sevenzip.ModuleLDecode,
		},
		times: func(Options) []int { return []int{2, 5, 7, 9} },
		cases: func(o Options) int { return o.testCases() },
	},
	"FG": {
		target: func(Options) propane.Target { return flightgear.System{} },
		modules: map[byte]string{
			'A': flightgear.ModuleGear,
			'B': flightgear.ModuleMass,
		},
		// The paper injects at three times uniformly distributed across
		// the post-initialisation window, spanning ground roll, rotation
		// and climb-out.
		times: func(Options) []int { return []int{900, 1400, 1900} },
		cases: func(Options) int { return 9 },
	},
	"MG": {
		target: func(Options) propane.Target { return mp3gain.System{} },
		modules: map[byte]string{
			'A': mp3gain.ModuleGAnalysis,
			'B': mp3gain.ModuleRGain,
		},
		times: func(Options) []int { return []int{2, 4, 6, 8} },
		cases: func(o Options) int { return o.testCases() },
	},
	// KV is the replicated key-value store target. It is not part of the
	// paper's Table II (AllDatasetIDs stays at the 18 published rows) but
	// resolves through the same ID grammar, so KV-A1..KV-B3 run the full
	// pipeline like any published dataset.
	"KV": {
		target: func(Options) propane.Target { return kvstore.System{} },
		modules: map[byte]string{
			'A': kvstore.ModuleReplicate,
			'B': kvstore.ModuleQuorum,
		},
		times: func(Options) []int { return []int{2, 5, 8, 11} },
		cases: func(o Options) int { return o.testCases() },
	},
}

// AllDatasetIDs returns the 18 dataset names of Table II in table order.
func AllDatasetIDs() []string {
	prefixes := []string{"7Z", "FG", "MG"}
	ids := make([]string, 0, 18)
	for _, p := range prefixes {
		for _, m := range []byte{'A', 'B'} {
			for n := 1; n <= 3; n++ {
				ids = append(ids, fmt.Sprintf("%s-%c%d", p, m, n))
			}
		}
	}
	return ids
}

// Info resolves a dataset ID into its Table II description.
func Info(id string, opts Options) (DatasetInfo, error) {
	target, spec, err := SpecFor(id, opts)
	if err != nil {
		return DatasetInfo{}, err
	}
	return DatasetInfo{
		ID:       id,
		Target:   target.Name(),
		Module:   spec.Module,
		InjectAt: spec.InjectAt,
		SampleAt: spec.SampleAt,
	}, nil
}

// SpecFor resolves a dataset ID ("7Z-A1" ... "MG-B3") into a target and
// a campaign spec.
func SpecFor(id string, opts Options) (propane.Target, propane.Spec, error) {
	if len(id) != 5 || id[2] != '-' {
		return nil, propane.Spec{}, fmt.Errorf("core: malformed dataset id %q", id)
	}
	sys, ok := systems[id[:2]]
	if !ok {
		return nil, propane.Spec{}, fmt.Errorf("core: unknown system prefix in %q", id)
	}
	module, ok := sys.modules[id[3]]
	if !ok {
		return nil, propane.Spec{}, fmt.Errorf("core: unknown module letter in %q", id)
	}
	n := int(id[4] - '0')
	injectAt, sampleAt := locationTriple(n)
	if injectAt == 0 {
		return nil, propane.Spec{}, fmt.Errorf("core: unknown location triple in %q", id)
	}
	target := sys.target(opts)
	spec := propane.Spec{
		Dataset:        id,
		Module:         module,
		InjectAt:       injectAt,
		SampleAt:       sampleAt,
		InjectionTimes: sys.times(opts),
		TestCases:      sys.cases(opts),
		Seed:           opts.Seed,
		Workers:        opts.Workers,
		BitStride:      opts.bitStride(),
		Fault:          opts.Fault,
	}
	return target, spec, nil
}

// Campaign runs Step 1 (fault injection analysis) for the dataset ID.
// All dataset generation flows through the resumable campaign engine
// (internal/campaign): without a journal configured the engine runs
// in-memory and is bit-identical to propane.Run; with Options.Journal
// set, the run checkpoints to Journal/<ID> and resumes from there.
func Campaign(ctx context.Context, id string, opts Options) (*propane.Campaign, error) {
	res, err := CampaignResult(ctx, id, opts)
	if err != nil {
		return nil, err
	}
	return res.Campaign, nil
}

// CampaignResult runs Step 1 through the campaign engine and returns
// the full engine result: the records plus resume accounting and any
// skipped cells. `edem campaign` reports from this.
func CampaignResult(ctx context.Context, id string, opts Options) (*campaign.Result, error) {
	target, spec, err := SpecFor(id, opts)
	if err != nil {
		return nil, err
	}
	res, err := campaign.Run(ctx, target, spec, opts.CampaignConfig(id))
	if err != nil {
		return nil, fmt.Errorf("core: campaign %s: %w", id, err)
	}
	return res, nil
}

// Preprocess runs Step 2's format transformation: the campaign log
// becomes a mining dataset (the PROPANE → ARFF conversion of §VII-B).
// Class-imbalance handling is deferred to the cross-validation
// transforms of Steps 3-4, as the paper does. The conversion is
// recorded as a "preprocess" telemetry phase with the emitted instance
// count in preprocess.instances.
func Preprocess(ctx context.Context, c *propane.Campaign) (*dataset.Dataset, error) {
	ctx, span := telemetry.StartSpan(ctx, "preprocess")
	defer span.End()
	d, err := propane.ToDataset(c)
	if err != nil {
		return nil, fmt.Errorf("core: preprocess %s: %w", c.Spec.Dataset, err)
	}
	reg := telemetry.FromContext(ctx)
	reg.Counter("preprocess.instances").Add(int64(d.Len()))
	reg.Counter("preprocess.attributes").Add(int64(len(d.Attrs)))
	return d, nil
}

// BuildDataset runs Steps 1-2 for a dataset ID.
func BuildDataset(ctx context.Context, id string, opts Options) (*dataset.Dataset, *propane.Campaign, error) {
	c, err := Campaign(ctx, id, opts)
	if err != nil {
		return nil, nil, err
	}
	d, err := Preprocess(ctx, c)
	if err != nil {
		return nil, nil, err
	}
	return d, c, nil
}

// SortedDatasetIDs returns ids sorted in Table II/III/IV order.
func SortedDatasetIDs(ids []string) []string {
	order := make(map[string]int, 18)
	for i, id := range AllDatasetIDs() {
		order[id] = i
	}
	out := make([]string, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return order[out[i]] < order[out[j]] })
	return out
}
