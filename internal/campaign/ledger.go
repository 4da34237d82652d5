package campaign

import (
	"encoding/json"
	"fmt"
	"sync"

	"edem/internal/durable"
	"edem/internal/propane"
)

// Ledger is the coordinator's view of a campaign journal: the plan, the
// set of completed shards, and a first-wins merge of checkpoint lines
// arriving from any number of workers (or from the coordinator itself).
// It is the authority the fabric protocol defers to — leases are
// advisory scheduling hints, the ledger's first-wins commit keyed by
// plan position is what makes duplicate completions harmless.
//
// All methods are safe for concurrent use.
type Ledger struct {
	plan *Plan

	mu       sync.Mutex
	jnl      *durable.Log
	done     map[int]bool
	restored int
	torn     int
	invalid  int
	reused   int
	dir      string
	closed   bool
}

// OpenLedger builds (or resumes) the journal for (target, spec) exactly
// as campaign.Run would — same manifest, same resume and incremental
// semantics — and returns the coordinator's handle over it. cfg.Journal
// must be set: a ledger without a journal has nothing to merge into.
func OpenLedger(target propane.Target, spec propane.Spec, cfg Config) (*Ledger, error) {
	if cfg.Journal == "" {
		return nil, fmt.Errorf("campaign: ledger requires a journal directory")
	}
	prep, err := preparePlan(target, spec, cfg)
	if err != nil {
		return nil, err
	}
	done := make(map[int]bool, len(prep.restored))
	for s := range prep.restored {
		done[s] = true
	}
	return &Ledger{
		plan:     prep.plan,
		jnl:      prep.jnl,
		done:     done,
		restored: len(prep.restored),
		torn:     prep.torn,
		invalid:  prep.invalidated,
		reused:   prep.reused,
		dir:      cfg.Journal,
	}, nil
}

// Plan returns the ledger's resolved plan.
func (l *Ledger) Plan() *Plan { return l.plan }

// Restored reports how many shards were already complete when the
// ledger opened; TornTails, Invalidated and Reused report the resume
// bookkeeping the same way campaign.Result does.
func (l *Ledger) Restored() int    { return l.restored }
func (l *Ledger) TornTails() int   { return l.torn }
func (l *Ledger) Invalidated() int { return l.invalid }
func (l *Ledger) Reused() int      { return l.reused }

// Pending returns the shards not yet committed, ascending.
func (l *Ledger) Pending() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int
	for s := 0; s < l.plan.Shards; s++ {
		if !l.done[s] {
			out = append(out, s)
		}
	}
	return out
}

// DoneCount returns how many shards are committed.
func (l *Ledger) DoneCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.done)
}

// Complete reports whether every shard is committed.
func (l *Ledger) Complete() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.done) == l.plan.Shards
}

// Commit validates one checkpoint line and merges it first-wins: the
// first commit of a shard is appended to the journal and accepted, any
// later commit of the same shard is a duplicate (accepted=false, no
// error — work-stealing makes duplicates normal, and duplicate shards
// are identical by construction so dropping them loses nothing). The
// line is re-encoded through the canonical encoder before appending, so
// journal bytes never depend on which worker produced them.
func (l *Ledger) Commit(line []byte) (shard int, accepted bool, err error) {
	var cp checkpoint
	if err := json.Unmarshal(line, &cp); err != nil {
		return 0, false, fmt.Errorf("campaign: ledger: undecodable checkpoint: %w", err)
	}
	if cp.Plan != l.plan.Hash {
		return 0, false, fmt.Errorf("%w: checkpoint for plan %.12s, ledger holds %.12s",
			ErrPlanMismatch, cp.Plan, l.plan.Hash)
	}
	if cp.Shard < 0 || cp.Shard >= l.plan.Shards {
		return 0, false, fmt.Errorf("campaign: ledger: shard %d out of range [0,%d)", cp.Shard, l.plan.Shards)
	}
	lo, hi := l.plan.ShardRange(cp.Shard)
	if len(cp.Records) != hi-lo {
		return 0, false, fmt.Errorf("campaign: ledger: shard %d has %d records, want %d",
			cp.Shard, len(cp.Records), hi-lo)
	}
	canonical, err := encodeCheckpointLine(cp)
	if err != nil {
		return 0, false, err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return cp.Shard, false, fmt.Errorf("campaign: ledger is closed")
	}
	if l.done[cp.Shard] {
		return cp.Shard, false, nil
	}
	if err := l.jnl.Append(canonical); err != nil {
		return cp.Shard, false, fmt.Errorf("campaign: ledger: append shard %d: %w", cp.Shard, err)
	}
	l.done[cp.Shard] = true
	return cp.Shard, true, nil
}

// Seal compacts the completed journal into canonical form (one line per
// shard, ascending, duplicates dropped) and closes the ledger. Sealing
// an incomplete ledger is an error; Close instead leaves a resumable
// journal behind.
func (l *Ledger) Seal() error {
	l.mu.Lock()
	if len(l.done) != l.plan.Shards {
		missing := l.plan.Shards - len(l.done)
		l.mu.Unlock()
		return fmt.Errorf("campaign: ledger: cannot seal with %d shards missing", missing)
	}
	l.mu.Unlock()
	if err := l.Close(); err != nil {
		return err
	}
	return sealJournal(l.dir, l.plan.Hash, l.plan.Shards)
}

// Close releases the journal file handle, leaving the journal resumable.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.jnl.Close()
}
