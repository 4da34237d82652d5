package propane

import (
	"context"
	"math"
	"testing"

	"edem/internal/bitflip"
	"edem/internal/telemetry"
)

// forkToy is the Forkable analog of toyTarget: module "M" activates
// Ticks times per run, acc accumulates through gate, junk is dead
// state recomputed every activation. The run loop is phase-structured
// so any visit position can be snapshot.
type forkToy struct {
	Ticks int
	// badResume, when set, makes RunFrom corrupt the state before
	// resuming — the golden-fork self-check must catch this and refuse
	// the fast path.
	badResume bool
}

type ftState struct {
	tick, phase int
	acc         float64
	gate        int64
	junk        float64
	tc          TestCase
	vars        []VarRef
}

func (s *ftState) Clone() State {
	return &ftState{tick: s.tick, phase: s.phase, acc: s.acc, gate: s.gate, junk: s.junk, tc: s.tc}
}

func (s *ftState) Digest() Digest {
	h := NewStateHasher()
	h.Int(s.tick)
	h.Int(s.phase)
	h.Float64(s.acc)
	h.Int64(s.gate)
	h.Float64(s.junk)
	return h.Sum()
}

func (s *ftState) refs() []VarRef {
	if s.vars == nil {
		s.vars = []VarRef{
			Float64Ref("acc", &s.acc),
			Int64Ref("gate", &s.gate),
			Float64Ref("junk", &s.junk),
		}
	}
	return s.vars
}

func (ft *forkToy) ticks() int {
	if ft.Ticks == 0 {
		return 5
	}
	return ft.Ticks
}

func (ft *forkToy) Name() string { return "ForkToy" }

func (ft *forkToy) Modules() []ModuleInfo {
	return []ModuleInfo{{
		Name: "M",
		Vars: []VarDecl{
			{Name: "acc", Kind: bitflip.Float64},
			{Name: "gate", Kind: bitflip.Int64},
			{Name: "junk", Kind: bitflip.Float64},
		},
	}}
}

func (ft *forkToy) TestCases(n int, seed uint64) []TestCase {
	tcs := make([]TestCase, n)
	for i := range tcs {
		tcs[i] = TestCase{ID: i, Seed: seed + uint64(i)}
	}
	return tcs
}

func (ft *forkToy) exec(st *ftState, probe Probe, ctl *RunControl, stopTick, stopPhase int) (any, error) {
	_, nop := probe.(NopProbe)
	var vars []VarRef
	if !nop {
		vars = st.refs()
	}
	step := 0
	for st.tick < ft.ticks() {
		if st.phase == 0 {
			if st.tick == stopTick && stopPhase == 0 {
				return nil, nil
			}
			if !nop {
				probe.Visit("M", Entry, vars)
			}
			st.acc += float64(st.gate) * float64(st.tc.ID+1)
			st.junk = st.acc * 2
			st.phase = 1
		}
		if st.phase == 1 {
			if st.tick == stopTick && stopPhase == 1 {
				return nil, nil
			}
			if !nop {
				probe.Visit("M", Exit, vars)
			}
			st.phase = 0
			st.tick++
			step++
			if ctl.Checkpoint(step, st) {
				return nil, ErrConverged
			}
		}
	}
	return toyOutput{Sum: st.acc}, nil
}

func (ft *forkToy) Run(tc TestCase, probe Probe) (any, error) {
	return ft.exec(&ftState{gate: 7, tc: tc}, probe, nil, -1, 0)
}

func (ft *forkToy) Failed(_ TestCase, golden, observed any) bool {
	g, ok1 := golden.(toyOutput)
	o, ok2 := observed.(toyOutput)
	if !ok1 || !ok2 {
		return true
	}
	return g != o
}

func (ft *forkToy) Snapshot(tc TestCase, module string, at Location, activation int) (State, bool, error) {
	if module != "M" || activation < 1 || activation > ft.ticks() {
		return nil, false, nil
	}
	phase := 0
	if at == Exit {
		phase = 1
	}
	st := &ftState{gate: 7, tc: tc}
	if _, err := ft.exec(st, NopProbe{}, nil, activation-1, phase); err != nil {
		return nil, false, err
	}
	return st, true, nil
}

func (ft *forkToy) RunFrom(st State, probe Probe, ctl *RunControl) (any, error) {
	s := st.(*ftState)
	if ft.badResume {
		s.acc += 1000 // deliberately unsound decomposition
	}
	return ft.exec(s, probe, ctl, -1, 0)
}

var _ Forkable = (*forkToy)(nil)

// sameRecords compares record slices bit-exactly: sampled states are
// compared by IEEE-754 bit pattern, since corrupted runs legitimately
// sample NaN (where == would lie).
func sameRecords(t *testing.T, got, want []Record) {
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

func TestStateHasher(t *testing.T) {
	h1 := NewStateHasher()
	h1.Int(1)
	h1.Float64(2.5)
	h2 := NewStateHasher()
	h2.Int(1)
	h2.Float64(2.5)
	if h1.Sum() != h2.Sum() {
		t.Fatal("hashing is not deterministic")
	}
	h3 := NewStateHasher()
	h3.Float64(2.5)
	h3.Int(1)
	if h3.Sum() == h1.Sum() {
		t.Fatal("field order does not distinguish digests")
	}
	// NaN payloads are distinct states.
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	a, b := NewStateHasher(), NewStateHasher()
	a.Float64(nan1)
	b.Float64(nan2)
	if a.Sum() == b.Sum() {
		t.Fatal("NaN payloads collide")
	}
	// Length prefixing prevents adjacent slices from aliasing.
	c, d := NewStateHasher(), NewStateHasher()
	c.Bytes([]byte{1})
	c.Bytes(nil)
	d.Bytes(nil)
	d.Bytes([]byte{1})
	if c.Sum() == d.Sum() {
		t.Fatal("byte-slice boundaries alias")
	}
	var zero StateHasher
	init := NewStateHasher()
	if zero.Sum() == init.Sum() {
		t.Fatal("zero-value hasher must differ from initialised one (zero value is not ready)")
	}
}

func TestNextCheckStep(t *testing.T) {
	want := []int{1, 2, 3, 4, 6, 9, 13, 19, 28}
	s := 0
	for i, w := range want {
		s = nextCheckStep(s)
		if s != w {
			t.Fatalf("schedule[%d] = %d, want %d", i, s, w)
		}
	}
}

// slowPath hides a target's Forkable implementation, so Run takes the
// slow path: the reference every fork-path result is compared against.
func slowPath(t Target) Target { return struct{ Target }{t} }

// TestForkEquivalence pins the tentpole invariant at the propane level:
// the same spec on the fork and the slow path yields bit-identical
// records.
func TestForkEquivalence(t *testing.T) {
	for _, at := range []struct {
		name           string
		inject, sample Location
	}{
		{"entry-exit", Entry, Exit},
		{"entry-entry", Entry, Entry},
		{"exit-exit", Exit, Exit},
	} {
		t.Run(at.name, func(t *testing.T) {
			spec := toySpec()
			spec.InjectAt, spec.SampleAt = at.inject, at.sample
			slow, err := Run(context.Background(), slowPath(&forkToy{}), spec)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := Run(context.Background(), &forkToy{}, spec)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, fast.Records, slow.Records)
		})
	}
}

// TestForkNonForkableFallback: a Forkable target takes the fast path
// without being asked, and a target without the Forkable interface
// (or with it hidden) runs on the slow path, reporting no fast-path
// events.
func TestForkNonForkableFallback(t *testing.T) {
	forkCells := func(target Target) int64 {
		reg := telemetry.New()
		if _, err := Run(telemetry.WithRegistry(context.Background(), reg), target, toySpec()); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters["campaign.fork_cells"]
	}
	if n := forkCells(&forkToy{}); n == 0 {
		t.Error("Forkable target did not take the fast path")
	}
	for _, target := range []Target{&toyTarget{}, slowPath(&forkToy{})} {
		if n := forkCells(target); n != 0 {
			t.Errorf("%T: slow-path campaign forked %d cells", target, n)
		}
	}
}

// TestForkRunnerStats: the fast path actually forks, converges on dead
// state and memoizes repeated post-injection states.
func TestForkRunnerStats(t *testing.T) {
	target := &forkToy{Ticks: 40}
	spec := toySpec()
	camp, err := Run(context.Background(), target, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Records) == 0 {
		t.Fatal("no records")
	}
	// Rebuild a runner directly to observe the counters.
	mod, _ := Module(target, "M")
	f := NewForkRunner(target, spec, mod)
	tcs := target.TestCases(spec.TestCases, spec.Seed)
	goldens := make([]any, len(tcs))
	for i, tc := range tcs {
		out, err := RunGolden(target, tc)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = out
	}
	slow, err := Run(context.Background(), slowPath(target), spec)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for _, j := range spec.Jobs(mod) {
		rec, ok := f.RunJob(j.TC, tcs[j.TC], goldens[j.TC], j)
		if !ok {
			t.Fatalf("job %+v fell back", j)
		}
		recs = append(recs, rec)
	}
	sameRecords(t, recs, slow.Records)
	st := f.Stats()
	if st.Snapshots == 0 || st.Forked == 0 {
		t.Fatalf("fast path did not fork: %+v", st)
	}
	// Dead-state (junk) flips re-converge with the golden trajectory at
	// the next checkpoint; identical post-injection states memoize.
	if st.Converged == 0 {
		t.Errorf("no convergence hits: %+v", st)
	}
	if st.MemoHits == 0 {
		t.Errorf("no memo hits: %+v", st)
	}
	if st.Fallbacks != 0 {
		t.Errorf("unexpected fallbacks: %+v", st)
	}
}

// TestForkRunnerEvictsColumns: every column is dropped once all of its
// cells have claimed it, so a complete campaign leaves the runner
// empty; a cell re-run afterwards (as a retry would) rebuilds its
// column and gets the same record.
func TestForkRunnerEvictsColumns(t *testing.T) {
	target := &forkToy{}
	spec := toySpec()
	mod, _ := Module(target, "M")
	tcs := target.TestCases(spec.TestCases, spec.Seed)
	goldens := make([]any, len(tcs))
	for i, tc := range tcs {
		out, err := RunGolden(target, tc)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = out
	}
	f := NewForkRunner(target, spec, mod)
	columns := func() int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return len(f.cols)
	}
	jobs := spec.Jobs(mod)
	recs := make([]Record, len(jobs))
	for i, j := range jobs {
		rec, ok := f.RunJob(j.TC, tcs[j.TC], goldens[j.TC], j)
		if !ok {
			t.Fatalf("job %+v fell back", j)
		}
		recs[i] = rec
		if i == 0 && columns() != 1 {
			t.Fatalf("after the first cell the runner holds %d columns, want 1", columns())
		}
	}
	if n := columns(); n != 0 {
		t.Fatalf("after a full run the runner holds %d columns, want 0", n)
	}
	built := f.Stats().Snapshots
	if want := int64(spec.TestCases * len(spec.InjectionTimes)); built != want {
		t.Fatalf("built %d columns, want one per (test case, time) = %d", built, want)
	}

	k := len(jobs) / 2
	j := jobs[k]
	rec, ok := f.RunJob(j.TC, tcs[j.TC], goldens[j.TC], j)
	if !ok {
		t.Fatalf("re-run of job %+v fell back", j)
	}
	if got := f.Stats().Snapshots; got != built+1 {
		t.Fatalf("re-run after eviction built %d columns, want 1", got-built)
	}
	sameRecords(t, []Record{rec}, recs[k:k+1])
}

// TestForkSelfCheck: a Forkable whose fork does not reproduce the
// golden outcome must be refused (every cell falls back) rather than
// produce mislabelled records.
func TestForkSelfCheck(t *testing.T) {
	target := &forkToy{badResume: true}
	spec := toySpec()
	mod, _ := Module(target, "M")
	tcs := target.TestCases(spec.TestCases, spec.Seed)
	golden, err := RunGolden(target, tcs[0])
	if err != nil {
		t.Fatal(err)
	}
	f := NewForkRunner(target, spec, mod)
	jobs := spec.Jobs(mod)
	if _, ok := f.RunJob(jobs[0].TC, tcs[jobs[0].TC], golden, jobs[0]); ok {
		t.Fatal("unsound decomposition not refused")
	}
	if st := f.Stats(); st.Fallbacks == 0 || st.Snapshots != 0 {
		t.Fatalf("self-check stats: %+v", st)
	}
	// End-to-end, the engine's fallback keeps results correct anyway.
	slow, err := Run(context.Background(), slowPath(&forkToy{}), spec)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(context.Background(), target, spec)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, fast.Records, slow.Records)
}
