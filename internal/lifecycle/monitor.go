package lifecycle

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"edem/internal/durable"
	"edem/internal/telemetry"
)

// MonitorConfig tunes a Monitor. The zero value of every threshold
// selects the default documented on the field.
type MonitorConfig struct {
	// Dir is the lifecycle journal directory; feedback.jsonl and
	// diffs.jsonl are created inside it. Required.
	Dir string
	// MinRequests is the canary window size before the rollback verdict
	// is consulted (default 50 requests that dual-evaluated).
	MinRequests int64
	// MaxDisagreeRate is the fraction of dual-evaluated samples on which
	// the candidate may disagree with the live bundle before a canary is
	// rolled back (default 0.20).
	MaxDisagreeRate float64
	// MaxAlarmRegress is the absolute increase of the candidate's alarm
	// rate over the live bundle's, within the canary window, that
	// triggers rollback (default 0.10).
	MaxAlarmRegress float64
	// Drift tunes the drift comparator thresholds.
	Drift DriftConfig
	// DiffQueueDepth bounds the async verdict-diff writer queue
	// (default 256; overflow is dropped and counted).
	DiffQueueDepth int
	// Registry receives the lifecycle.* metrics; nil falls back to the
	// process default registry.
	Registry *telemetry.Registry
}

// WindowStats is the canary/shadow accounting window since the last
// reset (candidate load, promote or rollback).
type WindowStats struct {
	// Requests is the number of requests that dual-evaluated (live and
	// candidate both produced verdicts).
	Requests int64 `json:"requests"`
	// Samples is the number of dual-evaluated samples.
	Samples int64 `json:"samples"`
	// Disagreements is the number of samples on which the two bundles
	// disagreed.
	Disagreements int64 `json:"disagreements"`
	// LiveAlarms / CandAlarms are alarm counts over the dual-evaluated
	// samples, one per side.
	LiveAlarms int64 `json:"live_alarms"`
	CandAlarms int64 `json:"cand_alarms"`
	// CanaryRequests is how many of the requests were served from the
	// candidate.
	CanaryRequests int64 `json:"canary_requests"`
}

// DisagreeRate returns the per-sample disagreement fraction (0 before
// any dual-evaluated sample).
func (w WindowStats) DisagreeRate() float64 {
	if w.Samples == 0 {
		return 0
	}
	return float64(w.Disagreements) / float64(w.Samples)
}

// AlarmRegress returns candidate alarm rate minus live alarm rate over
// the window (positive = the candidate alarms more).
func (w WindowStats) AlarmRegress() float64 {
	if w.Samples == 0 {
		return 0
	}
	return (float64(w.CandAlarms) - float64(w.LiveAlarms)) / float64(w.Samples)
}

// Monitor owns the serving side of the lifecycle: the feedback and
// verdict-diff journals, the drift tracker, and the canary rollback
// window. The serving runtime calls Observe*/Record* from its request
// path (all nil-safe and non-blocking apart from feedback appends);
// the admin surface calls Status, Baseline and the window resets.
type Monitor struct {
	cfg      MonitorConfig
	feedback *durable.Log
	diffs    *asyncJournal
	tracker  *Tracker

	reqs       atomic.Int64
	samples    atomic.Int64
	disagrees  atomic.Int64
	liveAlarms atomic.Int64
	candAlarms atomic.Int64
	canaryReqs atomic.Int64
	fbCount    atomic.Int64
	rolled     atomic.Bool // latched per candidate window; reset with it
	lastRollMu sync.Mutex
	lastRoll   string

	mShadowEvals *telemetry.Counter
	mDisagree    *telemetry.Counter
	mCanaryReqs  *telemetry.Counter
	mFeedback    *telemetry.Counter
	mDrops       *telemetry.Counter
}

// NewMonitor opens (or continues) the journals under cfg.Dir and
// returns a monitor ready for the serving runtime.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("lifecycle: monitor needs a journal directory")
	}
	if cfg.MinRequests <= 0 {
		cfg.MinRequests = 50
	}
	if cfg.MaxDisagreeRate <= 0 {
		cfg.MaxDisagreeRate = 0.20
	}
	if cfg.MaxAlarmRegress <= 0 {
		cfg.MaxAlarmRegress = 0.10
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	fb, err := durable.Open(filepath.Join(cfg.Dir, FeedbackName))
	if err != nil {
		return nil, err
	}
	dj, err := durable.Open(filepath.Join(cfg.Dir, DiffsName))
	if err != nil {
		fb.Close()
		return nil, err
	}
	m := &Monitor{
		cfg:      cfg,
		feedback: fb,
		tracker:  NewTracker(cfg.Drift),

		mShadowEvals: cfg.Registry.Counter("lifecycle.shadow_evals"),
		mDisagree:    cfg.Registry.Counter("lifecycle.shadow_disagreements"),
		mCanaryReqs:  cfg.Registry.Counter("lifecycle.canary_requests"),
		mFeedback:    cfg.Registry.Counter("lifecycle.feedback_records"),
		mDrops:       cfg.Registry.Counter("lifecycle.journal_drops"),
	}
	m.diffs = newAsyncJournal(dj, cfg.DiffQueueDepth, m.mDrops)
	return m, nil
}

// Dir returns the journal directory.
func (m *Monitor) Dir() string { return m.cfg.Dir }

// Close drains the async diff writer and closes both journals.
func (m *Monitor) Close() error {
	if m == nil {
		return nil
	}
	err := m.diffs.close()
	if cerr := m.feedback.Close(); err == nil {
		err = cerr
	}
	return err
}

// ObserveLive feeds the drift tracker with one served batch: the
// samples' feature magnitudes and the verdicts' alarm rate. Nil-safe.
func (m *Monitor) ObserveLive(det string, samples [][]float64, verdicts []bool) {
	if m == nil {
		return
	}
	m.tracker.Observe(det, samples, verdicts)
}

// RecordFeedback validates and journals one feedback record (fsynced
// before returning — feedback is low-rate and an acknowledged label
// must survive a kill).
func (m *Monitor) RecordFeedback(rec FeedbackRecord) error {
	if m == nil {
		return fmt.Errorf("lifecycle: monitor disabled")
	}
	if rec.Detector == "" {
		return fmt.Errorf("lifecycle: feedback needs a detector")
	}
	if _, err := ParseOutcome(string(rec.Outcome)); err != nil {
		return err
	}
	if _, err := ParseSource(string(rec.Source)); err != nil {
		return err
	}
	if rec.UnixMS == 0 {
		rec.UnixMS = time.Now().UnixMilli()
	}
	if err := appendRecord(m.feedback, rec); err != nil {
		return err
	}
	m.fbCount.Add(1)
	m.mFeedback.Inc()
	return nil
}

// RecordShadow accounts one dual-evaluated request: live and candidate
// verdicts over the same samples, which side was served, and the two
// bundle generations. Disagreements are journalled asynchronously.
// It returns rollback=true (exactly once per window) when the canary
// thresholds are crossed; the caller performs the actual rollback.
func (m *Monitor) RecordShadow(det string, served string, liveV, candV []bool,
	samples [][]float64, liveGen, candGen uint64, canaried bool) (rollback bool, reason string) {
	if m == nil || len(liveV) != len(candV) {
		return false, ""
	}
	m.reqs.Add(1)
	m.samples.Add(int64(len(liveV)))
	m.mShadowEvals.Add(int64(len(candV)))
	if canaried {
		m.canaryReqs.Add(1)
		m.mCanaryReqs.Inc()
	}
	var rec *DiffRecord
	for i := range liveV {
		if liveV[i] {
			m.liveAlarms.Add(1)
		}
		if candV[i] {
			m.candAlarms.Add(1)
		}
		if liveV[i] != candV[i] {
			m.disagrees.Add(1)
			m.mDisagree.Inc()
			if rec == nil {
				rec = &DiffRecord{
					UnixMS:   time.Now().UnixMilli(),
					Detector: det,
					LiveGen:  liveGen,
					CandGen:  candGen,
					Served:   served,
				}
			}
			rec.Index = append(rec.Index, i+1)
			rec.Live = append(rec.Live, liveV[i])
			if i < len(samples) {
				rec.State = append(rec.State, EncodeState(samples[i]))
			}
		}
	}
	if rec != nil {
		m.diffs.append(rec)
	}

	// Rollback verdict: only meaningful while a canary routes traffic,
	// and latched so one window triggers at most one rollback.
	if !canaried || m.rolled.Load() {
		return false, ""
	}
	w := m.Window()
	if w.Requests < m.cfg.MinRequests {
		return false, ""
	}
	switch {
	case w.DisagreeRate() > m.cfg.MaxDisagreeRate:
		reason = fmt.Sprintf("disagreement rate %.3f > %.3f over %d requests",
			w.DisagreeRate(), m.cfg.MaxDisagreeRate, w.Requests)
	case w.AlarmRegress() > m.cfg.MaxAlarmRegress:
		reason = fmt.Sprintf("alarm-rate regression %+.3f > %.3f over %d requests",
			w.AlarmRegress(), m.cfg.MaxAlarmRegress, w.Requests)
	default:
		return false, ""
	}
	if !m.rolled.CompareAndSwap(false, true) {
		return false, "" // another request raced us to the verdict
	}
	return true, reason
}

// Window snapshots the current shadow/canary accounting window.
func (m *Monitor) Window() WindowStats {
	if m == nil {
		return WindowStats{}
	}
	return WindowStats{
		Requests:       m.reqs.Load(),
		Samples:        m.samples.Load(),
		Disagreements:  m.disagrees.Load(),
		LiveAlarms:     m.liveAlarms.Load(),
		CandAlarms:     m.candAlarms.Load(),
		CanaryRequests: m.canaryReqs.Load(),
	}
}

// ResetWindow clears the shadow/canary window and the rollback latch —
// called on candidate load, promote and rollback, so each candidate
// epoch is judged on its own traffic.
func (m *Monitor) ResetWindow() {
	if m == nil {
		return
	}
	m.reqs.Store(0)
	m.samples.Store(0)
	m.disagrees.Store(0)
	m.liveAlarms.Store(0)
	m.candAlarms.Store(0)
	m.canaryReqs.Store(0)
	m.rolled.Store(false)
}

// NoteRollback records the reason of the latest rollback for Status.
func (m *Monitor) NoteRollback(reason string) {
	if m == nil {
		return
	}
	m.lastRollMu.Lock()
	m.lastRoll = reason
	m.lastRollMu.Unlock()
}

// Baseline freezes the drift tracker's current window as the baseline.
func (m *Monitor) Baseline() {
	if m == nil {
		return
	}
	m.tracker.Baseline()
}

// ResetDrift clears the drift tracker (a new live bundle generation
// starts with a clean history; re-baseline once it has seen
// known-good traffic).
func (m *Monitor) ResetDrift() {
	if m == nil {
		return
	}
	m.tracker.Reset()
}

// Drift returns the deterministic drift report (sorted by detector).
func (m *Monitor) Drift() []DriftRow {
	if m == nil {
		return nil
	}
	return m.tracker.Report()
}

// HasBaseline reports whether a drift baseline is frozen.
func (m *Monitor) HasBaseline() bool { return m != nil && m.tracker.HasBaseline() }

// FeedbackCount returns the feedback records journalled this process.
func (m *Monitor) FeedbackCount() int64 {
	if m == nil {
		return 0
	}
	return m.fbCount.Load()
}

// LastRollback returns the reason of the latest rollback ("" if none).
func (m *Monitor) LastRollback() string {
	if m == nil {
		return ""
	}
	m.lastRollMu.Lock()
	defer m.lastRollMu.Unlock()
	return m.lastRoll
}
