package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"edem/internal/durable"
	"edem/internal/propane"
)

// Journal layout: a directory holding one manifest and one append-only
// checkpoint log, both persisted through internal/durable.
//
//	<dir>/manifest.json      content-addressed plan description
//	<dir>/checkpoints.jsonl  one JSON line per completed shard
//
// The manifest is written once, atomically, before any shard executes.
// Checkpoint lines are appended and fsynced as shards complete, in
// completion order — which varies with scheduling — so the log is an
// unordered set keyed by shard index; resume sorts it back into plan
// order. A line truncated by a kill mid-append is counted as torn and
// cut off when the log is reopened: the shard it described re-runs.
//
// Sampled states are serialised as hex IEEE-754 bit patterns
// (durable.EncodeState: lowercase, not zero-padded, so 0 is "0"), not
// JSON numbers: corrupted runs legitimately sample NaN and ±Inf (which
// encoding/json rejects) and bit patterns round-trip exactly, which the
// resume bit-identity guarantee depends on.
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
	return recordJSON{
		TC:       r.TestCase,
		Var:      r.Var,
		Bit:      r.Bit,
		Time:     r.InjectionTime,
		State:    durable.EncodeState(r.State),
		Injected: r.Injected,
		Sampled:  r.Sampled,
		Failure:  r.Failure,
		Crashed:  r.Crashed,
		FlipErr:  r.FlipErr,
	}
}

func decodeRecord(r recordJSON) (propane.Record, error) {
	state, err := durable.DecodeState(r.State)
	if err != nil {
		return propane.Record{}, err
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

// writeManifest durably replaces the manifest.
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFileAtomic(dir, manifestName, append(data, '\n'))
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

// checkpointLog is what one scan of a checkpoint log found.
type checkpointLog struct {
	// done holds every decodable checkpoint of the plan, keyed by shard;
	// a duplicated shard keeps its first occurrence (shards are
	// deterministic, so duplicates are identical by construction).
	done map[int]checkpoint
	// torn counts undecodable lines (the torn tail of a killed append);
	// foreign counts dropped lines of other plans.
	torn, foreign int
	// canonical reports that line i holds shard i for every line, with
	// nothing torn: the log is already in sealed form.
	canonical bool
}

// readCheckpoints scans the checkpoint log for plan planHash. Lines
// recording a different plan hash are an error by default — the
// journal was cross-wired — unless dropForeign is set, in which case
// they are counted and skipped: incremental resume legitimately leaves
// superseded-plan lines behind when a kill lands between the manifest
// and checkpoint rewrites of a journal upgrade.
func readCheckpoints(dir, planHash string, dropForeign bool) (checkpointLog, error) {
	log := checkpointLog{done: map[int]checkpoint{}, canonical: true}
	lines := 0
	torn, err := durable.Scan(filepath.Join(dir, checkpointsName), func(cp checkpoint) error {
		if cp.Plan != planHash {
			if dropForeign {
				log.foreign++
				log.canonical = false
				return nil
			}
			return fmt.Errorf("%w: checkpoint for plan %.12s in journal for plan %.12s",
				ErrPlanMismatch, cp.Plan, planHash)
		}
		if cp.Shard != lines {
			log.canonical = false
		}
		lines++
		if _, ok := log.done[cp.Shard]; !ok {
			log.done[cp.Shard] = cp
		}
		return nil
	})
	if err != nil {
		return checkpointLog{}, err
	}
	log.torn = torn
	log.canonical = log.canonical && torn == 0
	return log, nil
}

// writeCheckpointLog durably replaces the checkpoint log
// (durable.WriteFileAtomic) with exactly the given shards in ascending
// shard order.
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
	return durable.WriteFileAtomic(dir, checkpointsName, buf)
}

// sealJournal compacts a completed journal into its canonical form:
// one checkpoint line per shard, in ascending shard order, duplicates
// (work-stealing races) and torn lines dropped. Sealing is what makes
// completed journals comparable byte-for-byte across execution paths —
// a local run, a resumed run and a multi-worker fabric run of the same
// plan all seal to identical bytes. A journal already in canonical
// form is left untouched.
func sealJournal(dir, planHash string, shards int) error {
	log, err := readCheckpoints(dir, planHash, false)
	if err != nil {
		return err
	}
	if len(log.done) != shards {
		return fmt.Errorf("campaign: seal: journal has %d of %d shards", len(log.done), shards)
	}
	if log.canonical {
		return nil
	}
	return writeCheckpointLog(dir, log.done)
}
