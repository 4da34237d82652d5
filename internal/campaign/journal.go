package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"edem/internal/propane"
)

// Journal layout: a directory holding one manifest and one append-only
// checkpoint log.
//
//	<dir>/manifest.json      content-addressed plan description
//	<dir>/checkpoints.jsonl  one JSON line per completed shard
//
// The manifest is written once, atomically (tmp, fsync, rename,
// directory fsync), before any shard executes. Checkpoint lines are appended and fsynced as shards
// complete, in completion order — which varies with scheduling — so the
// log is an unordered set keyed by shard index; resume sorts it back
// into plan order. A line truncated by a kill mid-append fails to parse
// and is discarded on load: the shard it described simply re-runs.
//
// Sampled states are serialised as 16-digit hex IEEE-754 bit patterns,
// not JSON numbers: corrupted runs legitimately sample NaN and ±Inf
// (which encoding/json rejects) and bit patterns round-trip exactly,
// which the resume bit-identity guarantee depends on.
const (
	manifestName    = "manifest.json"
	checkpointsName = "checkpoints.jsonl"
)

// ErrJournalExists reports an existing journal opened without Resume.
var ErrJournalExists = errors.New("campaign: journal already exists (pass resume to continue it)")

// ErrPlanMismatch reports a journal whose manifest describes a
// different plan than the one being run.
var ErrPlanMismatch = errors.New("campaign: journal belongs to a different plan")

// manifest is the on-disk description of a plan.
type manifest struct {
	Version  int               `json:"version"`
	Plan     string            `json:"plan"`
	Dataset  string            `json:"dataset"`
	Target   string            `json:"target"`
	Module   string            `json:"module"`
	Vars     []manifestVar     `json:"vars"`
	Jobs     int               `json:"jobs"`
	Shards   int               `json:"shards"`
	Spec     manifestSpec      `json:"spec"`
	Sections []manifestSection `json:"sections,omitempty"`
}

type manifestVar struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// manifestSection records one plan section's job range and content
// sub-hash — the inputs of incremental invalidation: a journaled shard
// survives a spec change exactly when every section it overlaps kept
// the same (lo, hi, hash) triple.
type manifestSection struct {
	TC   int    `json:"tc"`
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
	Hash string `json:"hash"`
}

// manifestSpec records the result-determining spec fields for human
// inspection and for rebuilding the plan on resume. Execution knobs
// (workers, timeout, retries) are deliberately absent: they may change
// between the original run and a resume.
type manifestSpec struct {
	InjectAt  int    `json:"inject_at"`
	SampleAt  int    `json:"sample_at"`
	Times     []int  `json:"times"`
	TestCases int    `json:"test_cases"`
	Seed      uint64 `json:"seed"`
	BitStride int    `json:"bit_stride"`
	// The fault-model axis, absent for the default transient model so
	// transient manifests stay byte-identical to pre-fault-model ones
	// (and old manifests decode as transient).
	FaultModel string `json:"fault_model,omitempty"`
	FaultWidth int    `json:"fault_width,omitempty"`
	Persist    int    `json:"fault_persist,omitempty"`
}

func newManifest(p *Plan) manifest {
	vars := make([]manifestVar, len(p.Module.Vars))
	for i, v := range p.Module.Vars {
		vars[i] = manifestVar{Name: v.Name, Kind: v.Kind.String()}
	}
	sections := make([]manifestSection, len(p.Sections))
	for i, s := range p.Sections {
		sections[i] = manifestSection{TC: s.TC, Lo: s.Lo, Hi: s.Hi, Hash: s.Hash}
	}
	spec := manifestSpec{
		InjectAt:  int(p.Spec.InjectAt),
		SampleAt:  int(p.Spec.SampleAt),
		Times:     p.Spec.InjectionTimes,
		TestCases: p.Spec.TestCases,
		Seed:      p.Spec.Seed,
		BitStride: p.Spec.BitStride,
	}
	if f := p.Spec.Fault.Normalized(); !f.IsTransient() {
		spec.FaultModel = f.Model.String()
		spec.FaultWidth = f.Width
		spec.Persist = f.Persist
	}
	return manifest{
		Version:  p.version(),
		Plan:     p.Hash,
		Dataset:  p.Spec.Dataset,
		Target:   p.Target,
		Module:   p.Module.Name,
		Vars:     vars,
		Jobs:     len(p.Jobs),
		Shards:   p.Shards,
		Spec:     spec,
		Sections: sections,
	}
}

// checkpoint is one journal line: the complete outcome of one shard.
// Records appear in job order and cover the shard's whole range;
// skipped cells keep their identifying (unsampled) record in Records
// and additionally carry a reason here.
type checkpoint struct {
	Plan    string        `json:"plan"`
	Shard   int           `json:"shard"`
	Records []recordJSON  `json:"records"`
	Skipped []SkippedCell `json:"skipped,omitempty"`
}

// recordJSON is the journal encoding of propane.Record. State values
// are IEEE-754 bit patterns in hex (see the package comment above).
type recordJSON struct {
	TC       int      `json:"tc"`
	Var      string   `json:"var"`
	Bit      int      `json:"bit"`
	Time     int      `json:"t"`
	State    []string `json:"state"`
	Injected bool     `json:"inj,omitempty"`
	Sampled  bool     `json:"smp,omitempty"`
	Failure  bool     `json:"fail,omitempty"`
	Crashed  bool     `json:"crash,omitempty"`
	FlipErr  bool     `json:"flip_err,omitempty"`
}

func encodeRecord(r propane.Record) recordJSON {
	var state []string
	if r.State != nil {
		state = make([]string, len(r.State))
		for i, v := range r.State {
			state[i] = strconv.FormatUint(math.Float64bits(v), 16)
		}
	}
	return recordJSON{
		TC:       r.TestCase,
		Var:      r.Var,
		Bit:      r.Bit,
		Time:     r.InjectionTime,
		State:    state,
		Injected: r.Injected,
		Sampled:  r.Sampled,
		Failure:  r.Failure,
		Crashed:  r.Crashed,
		FlipErr:  r.FlipErr,
	}
}

func decodeRecord(r recordJSON) (propane.Record, error) {
	var state []float64
	if r.State != nil {
		state = make([]float64, len(r.State))
		for i, s := range r.State {
			bits, err := strconv.ParseUint(s, 16, 64)
			if err != nil {
				return propane.Record{}, fmt.Errorf("campaign: bad state bits %q: %w", s, err)
			}
			state[i] = math.Float64frombits(bits)
		}
	}
	return propane.Record{
		TestCase:      r.TC,
		Var:           r.Var,
		Bit:           r.Bit,
		InjectionTime: r.Time,
		State:         state,
		Injected:      r.Injected,
		Sampled:       r.Sampled,
		Failure:       r.Failure,
		Crashed:       r.Crashed,
		FlipErr:       r.FlipErr,
	}, nil
}

// journal owns the open checkpoint log of one running campaign. Append
// is safe for concurrent use by shard workers; everything else happens
// before workers start or after they finish.
type journal struct {
	dir string

	mu sync.Mutex
	f  *os.File
}

// createJournal initialises a fresh journal directory: the manifest is
// staged to a temp file and renamed into place so a kill during
// creation leaves either no journal or a complete one, never a torn
// manifest. The directory is fsynced once the checkpoint log exists, so
// the journal's directory entries survive a crash as well as its bytes.
func createJournal(dir string, p *Plan) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := writeManifest(dir, newManifest(p)); err != nil {
		return nil, err
	}
	j, err := openCheckpointLog(dir)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

// writeManifest stages the manifest to a temp file and renames it into
// place (atomic on POSIX rename semantics).
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(dir, manifestName, append(data, '\n'))
}

// writeFileAtomic replaces dir/name with data durably: the bytes are
// staged to a temp file and fsynced, renamed into place, and the
// directory is fsynced so the rename itself survives a crash. A kill at
// any point leaves either the old file or the new one.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries created or renamed in
// it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// openJournal opens an existing journal for appending, after the
// caller has validated its manifest.
func openJournal(dir string) (*journal, error) {
	return openCheckpointLog(dir)
}

func openCheckpointLog(dir string) (*journal, error) {
	f, err := os.OpenFile(filepath.Join(dir, checkpointsName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{dir: dir, f: f}, nil
}

// encodeCheckpointLine renders one checkpoint as its canonical
// newline-terminated journal line. Every journal writer — the local
// engine, the fabric worker and the coordinator merge — goes through
// this one encoder, which is what makes a shard's bytes identical
// whichever machine executed it.
func encodeCheckpointLine(cp checkpoint) ([]byte, error) {
	data, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// append writes one checkpoint line and fsyncs it, so a completed
// shard survives any subsequent kill.
func (j *journal) append(cp checkpoint) error {
	data, err := encodeCheckpointLine(cp)
	if err != nil {
		return err
	}
	return j.appendRaw(data)
}

// appendRaw writes one pre-encoded, pre-validated checkpoint line and
// fsyncs it. The coordinator merge path uses it to persist worker lines
// byte-for-byte as they arrived.
func (j *journal) appendRaw(line []byte) error {
	if len(line) == 0 || line[len(line)-1] != '\n' {
		line = append(append([]byte(nil), line...), '\n')
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// readManifest loads <dir>/manifest.json. The boolean reports whether
// a manifest exists at all; any other read or decode problem is an
// error.
func readManifest(dir string) (manifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, false, fmt.Errorf("campaign: corrupt manifest in %s: %w", dir, err)
	}
	return m, true, nil
}

// readCheckpoints loads every decodable checkpoint of plan planHash
// from the journal, keyed by shard index. Undecodable lines (the
// torn tail of a killed append) are counted and skipped; duplicate
// shards keep the first occurrence (shards are deterministic, so
// duplicates are identical by construction). Lines recording a
// different plan hash are an error by default — the journal was
// cross-wired — unless dropForeign is set, in which case they are
// counted and skipped: incremental resume legitimately leaves
// superseded-plan lines behind when a kill lands between the manifest
// and checkpoint rewrites of a journal upgrade.
func readCheckpoints(dir, planHash string, dropForeign bool) (done map[int]checkpoint, torn, foreign int, err error) {
	f, err := os.Open(filepath.Join(dir, checkpointsName))
	if errors.Is(err, os.ErrNotExist) {
		return map[int]checkpoint{}, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()

	done = make(map[int]checkpoint)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var cp checkpoint
		if err := json.Unmarshal(line, &cp); err != nil {
			torn++
			continue
		}
		if cp.Plan != planHash {
			if dropForeign {
				foreign++
				continue
			}
			return nil, 0, 0, fmt.Errorf("%w: checkpoint for plan %.12s in journal for plan %.12s",
				ErrPlanMismatch, cp.Plan, planHash)
		}
		if _, ok := done[cp.Shard]; !ok {
			done[cp.Shard] = cp
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, 0, err
	}
	return done, torn, foreign, nil
}

// writeCheckpointLog durably replaces the checkpoint log (see
// writeFileAtomic) with exactly the given shards in ascending shard
// order.
func writeCheckpointLog(dir string, cps map[int]checkpoint) error {
	shards := make([]int, 0, len(cps))
	for s := range cps {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	var buf []byte
	for _, s := range shards {
		line, err := encodeCheckpointLine(cps[s])
		if err != nil {
			return err
		}
		buf = append(buf, line...)
	}
	return writeFileAtomic(dir, checkpointsName, buf)
}

// sealJournal compacts a completed journal into its canonical form:
// one checkpoint line per shard, in ascending shard order, duplicates
// (work-stealing races) and torn tails dropped. Sealing is what makes
// completed journals comparable byte-for-byte across execution paths —
// a local run, a resumed run and a multi-worker fabric run of the same
// plan all seal to identical bytes. A journal already in canonical
// form is left untouched.
func sealJournal(dir, planHash string, shards int) error {
	cps, torn, _, err := readCheckpoints(dir, planHash, false)
	if err != nil {
		return err
	}
	if len(cps) != shards {
		return fmt.Errorf("campaign: seal: journal has %d of %d shards", len(cps), shards)
	}
	if torn == 0 {
		canonical, err := isCanonicalLog(dir, shards)
		if err != nil {
			return err
		}
		if canonical {
			return nil
		}
	}
	return writeCheckpointLog(dir, cps)
}

// isCanonicalLog reports whether the checkpoint log already holds
// exactly one line per shard in ascending order (so sealing can skip
// the rewrite — the common case for an uninterrupted local run).
func isCanonicalLog(dir string, shards int) (bool, error) {
	f, err := os.Open(filepath.Join(dir, checkpointsName))
	if err != nil {
		return false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	next := 0
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var cp struct {
			Shard int `json:"shard"`
		}
		if err := json.Unmarshal(sc.Bytes(), &cp); err != nil || cp.Shard != next {
			return false, nil
		}
		next++
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	return next == shards, nil
}
