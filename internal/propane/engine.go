package propane

import (
	"context"
	"errors"
	"fmt"
	"time"

	"edem/internal/bitflip"
	"edem/internal/parallel"
	"edem/internal/telemetry"
)

// Spec configures one fault-injection campaign, producing one dataset in
// the sense of Table II: a (target, module, injection location, sampling
// location) combination exercised across test cases, variables, bit
// positions and injection times.
type Spec struct {
	// Dataset is the dataset name, e.g. "FG-A2".
	Dataset string
	// Module is the instrumented module under injection.
	Module string
	// InjectAt and SampleAt choose the instrumentation locations.
	InjectAt Location
	SampleAt Location
	// InjectionTimes lists the 1-based activation indices of the
	// injection location at which the flip is performed. Each run uses
	// exactly one of them (single-fault model).
	InjectionTimes []int
	// TestCases is the number of workload configurations to generate.
	TestCases int
	// Seed drives test-case generation.
	Seed uint64
	// Workers bounds campaign parallelism; 0 draws on the process-wide
	// scheduler budget (parallel.SetBudget, default all cores).
	Workers int
	// BitStride samples every BitStride-th bit position (1 = every bit,
	// the paper's configuration). Larger strides scale campaigns down
	// while preserving coverage of sign, exponent and mantissa regions.
	BitStride int
	// Fault selects the fault model applied at each cell. The zero
	// value is the default transient single-bit flip, which keeps the
	// spec's plan hash, journal and ARFF output byte-identical to specs
	// that predate the fault-model axis. The model does not change the
	// job enumeration — every model injects at the same (tc, var, bit,
	// time) cells — only what each injection does to the variable.
	Fault bitflip.Fault
}

// Validate checks the spec for structural problems.
func (s *Spec) Validate() error {
	switch {
	case s.Dataset == "":
		return errors.New("propane: spec missing dataset name")
	case s.Module == "":
		return errors.New("propane: spec missing module")
	case s.InjectAt != Entry && s.InjectAt != Exit:
		return fmt.Errorf("propane: bad injection location %v", s.InjectAt)
	case s.SampleAt != Entry && s.SampleAt != Exit:
		return fmt.Errorf("propane: bad sampling location %v", s.SampleAt)
	case len(s.InjectionTimes) == 0:
		return errors.New("propane: spec needs at least one injection time")
	case s.TestCases <= 0:
		return errors.New("propane: spec needs at least one test case")
	}
	for _, t := range s.InjectionTimes {
		if t < 1 {
			return fmt.Errorf("propane: injection time %d must be >= 1", t)
		}
	}
	if s.BitStride < 0 {
		return fmt.Errorf("propane: bit stride %d must be >= 0", s.BitStride)
	}
	if err := s.Fault.Validate(); err != nil {
		return err
	}
	return nil
}

func (s *Spec) bitStride() int {
	if s.BitStride <= 0 {
		return 1
	}
	return s.BitStride
}

// BitPlan returns the bit positions a campaign injects for a variable
// kind. With stride 1 every bit is flipped, the paper's configuration.
// Larger strides thin out only the low-order bits (for float64, the low
// mantissa; for integers, the low magnitude bits) while always covering
// the top 16 bits densely — the sign, exponent and high-order region
// where flips are consequential. A uniform stride would silently skip
// most of that region and with it most failure modes.
func BitPlan(kind bitflip.Kind, stride int) []int {
	n := kind.Bits()
	if stride <= 1 {
		stride = 1
	}
	const denseTop = 16
	if n <= denseTop || stride == 1 {
		bits := make([]int, n)
		for i := range bits {
			bits[i] = i
		}
		return bits
	}
	var bits []int
	for b := 0; b < n-denseTop; b += stride {
		bits = append(bits, b)
	}
	for b := n - denseTop; b < n; b++ {
		bits = append(bits, b)
	}
	return bits
}

// Job identifies one injected run within a campaign's injection space:
// indices into the generated test-case list and the module's variable
// list, plus the bit position and the 1-based injection activation.
// Jobs are pure coordinates — they carry no results — so a campaign's
// work plan can be enumerated, sharded and journaled without executing
// anything (internal/campaign builds on this).
type Job struct {
	TC   int
	Var  int
	Bit  int
	Time int
}

// Jobs enumerates the spec's injection space against a module in
// canonical order: test case (outermost), variable, bit plan, injection
// time (innermost). Every execution path — Run here and the journaled
// engine in internal/campaign — derives its work from this single
// enumeration, which is what makes sharded, resumed and uninterrupted
// campaigns produce records in identical order.
func (s *Spec) Jobs(mod ModuleInfo) []Job {
	var jobs []Job
	stride := s.bitStride()
	for tc := 0; tc < s.TestCases; tc++ {
		for v, vd := range mod.Vars {
			for _, bit := range BitPlan(vd.Kind, stride) {
				for _, t := range s.InjectionTimes {
					jobs = append(jobs, Job{TC: tc, Var: v, Bit: bit, Time: t})
				}
			}
		}
	}
	return jobs
}

// Record is the outcome of one injected run: which fault was injected,
// the module state sampled at the sampling location, and whether the run
// violated the failure specification.
type Record struct {
	TestCase      int
	Var           string
	Bit           int
	InjectionTime int
	// State holds the sampled values of the module's variables, in
	// ModuleInfo order. Nil if the sampling point was never reached
	// after injection (e.g. the run crashed first).
	State []float64
	// Injected reports whether the injection activation was reached.
	Injected bool
	// Sampled reports whether the state was captured post-injection.
	Sampled bool
	// Failure reports whether the run violated the failure spec (an
	// output deviation from the golden run, a domain-specific violation,
	// or a crash).
	Failure bool
	// Crashed reports whether the run panicked or returned an error.
	Crashed bool
	// FlipErr reports that the bit flip itself failed (VarRef.FlipBit
	// returned an error), i.e. the injection was a silent no-op. Such
	// records are visible rather than masquerading as benign runs.
	FlipErr bool
}

// Campaign is the result of running a Spec against a target.
type Campaign struct {
	Spec     Spec
	Target   string
	VarNames []string
	Records  []Record
	// Golden holds one output per test case from the fault-free runs.
	goldenOutputs []any
}

// Failures counts records labelled as failures.
func (c *Campaign) Failures() int {
	n := 0
	for i := range c.Records {
		if c.Records[i].Failure {
			n++
		}
	}
	return n
}

// Usable counts records that produced a sampled state (and therefore a
// dataset instance).
func (c *Campaign) Usable() int {
	n := 0
	for i := range c.Records {
		if c.Records[i].Sampled {
			n++
		}
	}
	return n
}

// NewCampaign assembles a Campaign from externally executed runs:
// records must be in Jobs order (one per job) and golden holds one
// fault-free output per test case (nil when the assembling layer
// restored every record from a journal without re-running goldens).
// internal/campaign uses this to materialise resumed campaigns.
func NewCampaign(spec Spec, targetName string, varNames []string, records []Record, golden []any) *Campaign {
	return &Campaign{
		Spec:          spec,
		Target:        targetName,
		VarNames:      varNames,
		Records:       records,
		goldenOutputs: golden,
	}
}

// ErrModuleNotFound reports a spec naming a module the target lacks.
var ErrModuleNotFound = errors.New("propane: module not found in target")

// Run executes the full campaign: golden runs for every test case, then
// one injected run per (test case, variable, bit, injection time),
// fanned out across workers. Results are deterministic for a given spec
// and target: records appear in job order regardless of scheduling.
//
// Each campaign is recorded as a "campaign" telemetry phase; the
// campaign.* counters (runs injected, states sampled, failure labels,
// crashes, golden runs) and the campaign.run_ns per-run wall-clock
// histogram report where fault-injection volume goes.
func Run(ctx context.Context, target Target, spec Spec) (*Campaign, error) {
	ctx, span := telemetry.StartSpan(ctx, "campaign")
	defer span.End()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	mod, ok := Module(target, spec.Module)
	if !ok {
		return nil, fmt.Errorf("%w: %q in %q", ErrModuleNotFound, spec.Module, target.Name())
	}

	tcs := target.TestCases(spec.TestCases, spec.Seed)
	golden := make([]any, len(tcs))
	for i, tc := range tcs {
		out, err := RunGolden(target, tc)
		if err != nil {
			return nil, fmt.Errorf("propane: golden run for test case %d: %w", tc.ID, err)
		}
		golden[i] = out
	}

	jobs := spec.Jobs(mod)

	reg := telemetry.FromContext(ctx)
	reg.Counter("campaign.golden_runs").Add(int64(len(tcs)))
	metrics := NewRunMetrics(reg).WithFault(spec.Fault)

	// Fast path: a target implementing the Forkable contract forks every
	// cell of a column from one golden snapshot instead of re-running the
	// fault-free prefix per cell. Results are bit-identical to the slow
	// path (see fork.go), which still runs for other targets and for the
	// cells the fork runner refuses.
	var fork *ForkRunner
	if ft, ok := target.(Forkable); ok {
		fork = NewForkRunner(ft, spec, mod)
	}

	// Injected runs are independent, so they fan out on the shared
	// scheduler; indexed writes keep records in job order regardless of
	// scheduling, and spec.Workers (0 = the global budget) bounds this
	// campaign's share of it.
	records := make([]Record, len(jobs))
	if err := parallel.ForEach(ctx, len(jobs), spec.Workers, func(idx int) error {
		var runStart time.Time
		if metrics.Enabled() {
			runStart = time.Now()
		}
		j := jobs[idx]
		var rec Record
		fromFork := false
		if fork != nil {
			rec, fromFork = fork.RunJob(j.TC, tcs[j.TC], golden[j.TC], j)
		}
		if !fromFork {
			rec = RunJob(target, spec, mod, tcs[j.TC], golden[j.TC], j)
		}
		records[idx] = rec
		if metrics.Enabled() {
			metrics.Observe(rec, time.Since(runStart))
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("propane: campaign cancelled: %w", err)
	}
	if fork != nil {
		fork.Report(reg)
	}

	varNames := make([]string, len(mod.Vars))
	for i, v := range mod.Vars {
		varNames[i] = v.Name
	}
	return NewCampaign(spec, target.Name(), varNames, records, golden), nil
}

// RunMetrics hoists the per-run campaign.* telemetry handles out of the
// injection loop so every execution path (Run above and the journaled
// engine in internal/campaign) reports identical counters. A RunMetrics
// built from a nil registry absorbs observations behind Enabled.
type RunMetrics struct {
	reg            *telemetry.Registry
	cInjected      *telemetry.Counter
	cActivated     *telemetry.Counter
	cSampled       *telemetry.Counter
	cFailures      *telemetry.Counter
	cCrashes       *telemetry.Counter
	cFlipErrs      *telemetry.Counter
	cFaultModelErr *telemetry.Counter
	faultModel     bool
	hRunNS         *telemetry.Histogram
}

// NewRunMetrics resolves the campaign.* run counters (runs injected,
// injections activated, states sampled, failure labels, crashes) and
// the campaign.run_ns wall-clock histogram against reg. A nil reg
// yields a disabled RunMetrics.
func NewRunMetrics(reg *telemetry.Registry) *RunMetrics {
	return &RunMetrics{
		reg:            reg,
		cInjected:      reg.Counter("campaign.runs_injected"),
		cActivated:     reg.Counter("campaign.injections_activated"),
		cSampled:       reg.Counter("campaign.states_sampled"),
		cFailures:      reg.Counter("campaign.failures"),
		cCrashes:       reg.Counter("campaign.crashes"),
		cFlipErrs:      reg.Counter("campaign.flip_errors"),
		cFaultModelErr: reg.Counter("campaign.fault_model_errors"),
		hRunNS:         reg.Histogram("campaign.run_ns"),
	}
}

// WithFault tells the metrics which fault model the campaign runs
// under, so flip errors on a non-transient campaign are additionally
// attributed to campaign.fault_model_errors — the counter that makes
// unsupported fault-model × variable combinations visible instead of
// letting them hide among ordinary flip errors. Returns m for chaining.
func (m *RunMetrics) WithFault(f bitflip.Fault) *RunMetrics {
	if m != nil {
		m.faultModel = !f.IsTransient()
	}
	return m
}

// Enabled reports whether observations will be recorded; hot loops use
// it to skip the time.Now calls feeding the run histogram.
func (m *RunMetrics) Enabled() bool { return m != nil && m.reg != nil }

// Observe records the outcome and wall-clock duration of one injected
// run.
func (m *RunMetrics) Observe(rec Record, d time.Duration) {
	if !m.Enabled() {
		return
	}
	m.hRunNS.ObserveDuration(d)
	m.cInjected.Inc()
	if rec.Injected {
		m.cActivated.Inc()
	}
	if rec.Sampled {
		m.cSampled.Inc()
	}
	if rec.Failure {
		m.cFailures.Inc()
	}
	if rec.Crashed {
		m.cCrashes.Inc()
	}
	if rec.FlipErr {
		m.cFlipErrs.Inc()
		if m.faultModel {
			m.cFaultModelErr.Inc()
		}
	}
}

// RunGolden executes one fault-free run of a test case, converting
// target panics into errors. The returned output is the reference the
// failure specification compares injected outputs against.
func RunGolden(target Target, tc TestCase) (any, error) {
	return runSafely(target, tc, NopProbe{})
}

// RunJob performs the single injected run identified by j and
// classifies its outcome. tc and golden must correspond to j.TC, and
// mod to spec.Module. It never returns an error: crashes provoked by
// the injected corruption are data (Record.Crashed), not failures of
// the campaign machinery.
func RunJob(target Target, spec Spec, mod ModuleInfo, tc TestCase, golden any, j Job) Record {
	return runInjected(target, spec, mod, tc, golden, j.Var, j.Bit, j.Time)
}

// runInjected performs one injected run and classifies the outcome.
func runInjected(target Target, spec Spec, mod ModuleInfo, tc TestCase, golden any, varIdx, bit, injTime int) Record {
	probe := &injectProbe{
		module:   spec.Module,
		injectAt: spec.InjectAt,
		sampleAt: spec.SampleAt,
		injTime:  injTime,
		varName:  mod.Vars[varIdx].Name,
		bit:      bit,
		fault:    spec.Fault.Normalized(),
	}
	out, err := runSafely(target, tc, probe)
	rec := Record{
		TestCase:      tc.ID,
		Var:           mod.Vars[varIdx].Name,
		Bit:           bit,
		InjectionTime: injTime,
		State:         probe.state,
		Injected:      probe.injected,
		Sampled:       probe.sampled,
		FlipErr:       probe.flipErr,
	}
	switch {
	case err != nil:
		rec.Crashed = true
		rec.Failure = probe.injected
	case probe.injected:
		rec.Failure = target.Failed(tc, golden, out)
	}
	return rec
}

// runSafely executes target.Run converting panics (which corrupted
// values can legitimately provoke inside target code) into errors, so a
// crash is just another observable failure mode of an injected run.
func runSafely(target Target, tc TestCase, probe Probe) (out any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("propane: target panicked: %v", r)
		}
	}()
	return target.Run(tc, probe)
}

// injectProbe corrupts one variable at the configured activation of the
// injection location, then samples the module state at the first
// subsequent visit of the sampling location. When injection and sampling
// share a location the sample is taken in the same visit, immediately
// after the corruption (paper §VI-A: "inject errors at the end of a
// module, and sample straight after the injection").
//
// The corruption shape is the probe's fault model. All four models
// apply the same XOR mask at the injection activation (for transient
// and burst that is the whole fault); the persistent models (stuck-at,
// intermittent) additionally re-assert the corrupted bit value at every
// subsequent activation of the injection location — stuck-at for the
// rest of the run, intermittent for fault.Persist activations in total
// — so the probe keeps receiving visits after the state was sampled.
type injectProbe struct {
	module   string
	injectAt Location
	sampleAt Location
	injTime  int
	varName  string
	bit      int
	fault    bitflip.Fault

	activations int
	injected    bool
	sampled     bool
	flipErr     bool
	state       []float64

	// Persistent-model bookkeeping: the masked stuck bit value being
	// re-asserted, how many activations have asserted it, and whether
	// the fault has been released (intermittent past its persist count,
	// or an apply-time fault-model error).
	stuckMask uint64
	stuckVal  uint64
	asserts   int
	released  bool
}

var _ Probe = (*injectProbe)(nil)

func (p *injectProbe) Visit(module string, loc Location, vars []VarRef) {
	if module != p.module {
		return
	}
	reasserting := p.injected && !p.released && p.fault.Persistent()
	if p.sampled && !reasserting {
		return
	}
	if loc == p.injectAt {
		p.activations++
		if !p.injected && p.activations == p.injTime {
			p.apply(vars)
			p.injected = true
			if p.sampleAt == loc && !p.sampled {
				p.sample(vars)
			}
			return
		}
		if reasserting {
			p.reassert(vars)
		}
	}
	if loc == p.sampleAt && p.injected && !p.sampled {
		p.sample(vars)
	}
}

// apply performs the injection-activation corruption on the probe's
// variable. A fault that cannot be applied (mask outside the variable's
// kind, or a hand-built VarRef without raw-bit accessors under a
// non-transient model) is a flip error: surfaced on the record and in
// campaign.fault_model_errors, never a silently benign run.
func (p *injectProbe) apply(vars []VarRef) {
	for _, v := range vars {
		if v.Name != p.varName {
			continue
		}
		if p.fault.IsTransient() {
			if err := v.FlipBit(p.bit); err != nil {
				p.flipErr = true
			}
			return
		}
		mask, err := p.fault.Mask(v.Kind, p.bit)
		if err != nil || v.Bits == nil || v.SetBits == nil {
			p.flipErr = true
			p.released = true
			return
		}
		raw := v.Bits() ^ mask
		v.SetBits(raw)
		if p.fault.Persistent() {
			p.stuckMask = mask
			p.stuckVal = raw & mask
			p.noteAssert()
		}
		return
	}
}

// reassert forces the stuck bit value back into the variable at a
// post-injection activation of the injection location.
func (p *injectProbe) reassert(vars []VarRef) {
	for _, v := range vars {
		if v.Name != p.varName {
			continue
		}
		v.SetBits(v.Bits()&^p.stuckMask | p.stuckVal)
		p.noteAssert()
		return
	}
}

// noteAssert counts one assertion of the stuck value and releases an
// intermittent fault once it has been asserted fault.Persist times.
// Stuck-at faults never release.
func (p *injectProbe) noteAssert() {
	p.asserts++
	if p.fault.Model == bitflip.Intermittent && p.asserts >= p.fault.Persist {
		p.released = true
	}
}

func (p *injectProbe) sample(vars []VarRef) {
	p.state = make([]float64, len(vars))
	for i, v := range vars {
		p.state[i] = v.Read()
	}
	p.sampled = true
}
