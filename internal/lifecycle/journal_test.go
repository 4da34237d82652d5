package lifecycle

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"edem/internal/durable"
	"edem/internal/telemetry"
)

// appendAll opens the journal at path, appends recs the way a Monitor
// does, and closes it again.
func appendAll(t *testing.T, path string, recs ...any) {
	t.Helper()
	log, err := durable.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := appendRecord(log, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFeedbackJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feedback.jsonl")
	want := []FeedbackRecord{
		{UnixMS: 1, Detector: "a", Generation: 1, Alarm: true, Outcome: OutcomeTrueAlarm, Source: SourceOperator},
		{UnixMS: 2, Detector: "b", Alarm: false, Outcome: OutcomeBenign, Source: SourceGolden,
			State: EncodeState([]float64{1.5, math.NaN(), math.Inf(-1)}), Note: "note"},
	}
	appendAll(t, path, want[0], want[1])
	got, torn, err := ReadFeedback(path)
	if err != nil || torn != 0 {
		t.Fatalf("read: torn=%d err=%v", torn, err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	if got[0].Detector != "a" || got[1].Note != "note" {
		t.Fatalf("records mangled: %+v", got)
	}
	// Non-finite state survives bit-exactly.
	vals, err := DecodeState(got[1].State)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 1.5 || !math.IsNaN(vals[1]) || !math.IsInf(vals[2], -1) {
		t.Fatalf("state round-trip lost non-finite values: %v", vals)
	}
}

// TestJournalTornTail pins the crash contract: a half-written final
// line (a kill mid-append) is skipped and counted, every complete line
// before it survives.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diffs.jsonl")
	for i := 0; i < 3; i++ {
		appendAll(t, path, DiffRecord{Detector: "d", LiveGen: 1, CandGen: 2, Served: "live", Index: []int{i + 1}})
	}
	// Simulate the kill: append half a record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"detector":"d","live_gen":1,"ca`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, torn, err := ReadDiffs(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 1 {
		t.Fatalf("torn = %d, want 1", torn)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want the 3 complete ones", len(recs))
	}

	// Reopening repairs the torn tail, so the first record acknowledged
	// after the restart starts on its own line and survives instead of
	// being glued to the fragment.
	appendAll(t, path, DiffRecord{Detector: "e", LiveGen: 3, CandGen: 4, Served: "live"})
	recs2, torn2, err := ReadDiffs(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn2 != 0 || len(recs2) != 4 || recs2[3].Detector != "e" {
		t.Fatalf("after reopen and append: %d records (torn %d), want the 3 old ones and the new one",
			len(recs2), torn2)
	}
}

// TestJournalReopenTornOnly: a journal holding nothing but a torn
// fragment (a kill during the very first append) reopens empty, and the
// next acknowledged record reads back.
func TestJournalReopenTornOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "feedback.jsonl")
	if err := os.WriteFile(path, []byte(`{"unix_ms":1,"detec`), 0o644); err != nil {
		t.Fatal(err)
	}
	appendAll(t, path, FeedbackRecord{UnixMS: 2, Detector: "a", Outcome: OutcomeBenign})
	recs, torn, err := ReadFeedback(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(recs) != 1 || recs[0].Detector != "a" {
		t.Fatalf("recs=%d torn=%d, want the acknowledged record and no torn line", len(recs), torn)
	}
}

func TestReadMissingJournal(t *testing.T) {
	recs, torn, err := ReadFeedback(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || torn != 0 || len(recs) != 0 {
		t.Fatalf("missing journal: recs=%v torn=%d err=%v, want empty", recs, torn, err)
	}
}

// TestAsyncJournalDrops pins the overflow contract: a full queue drops
// and counts instead of blocking.
func TestAsyncJournalDrops(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	m, err := NewMonitor(MonitorConfig{Dir: dir, DiffQueueDepth: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Far more disagreeing requests than the queue can hold; none may
	// block, and drops + journalled lines must account for all of them.
	const n = 500
	for i := 0; i < n; i++ {
		m.RecordShadow("d", "live", []bool{false}, []bool{true},
			[][]float64{{1}}, 1, 2, false)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadDiffs(filepath.Join(dir, DiffsName))
	if err != nil {
		t.Fatal(err)
	}
	drops := reg.Counter("lifecycle.journal_drops").Value()
	if int64(len(recs))+drops != n {
		t.Fatalf("journalled %d + dropped %d != %d submitted", len(recs), drops, n)
	}
	if len(recs) == 0 {
		t.Fatal("everything dropped: the writer never ran")
	}
}

// TestMonitorRollbackVerdict pins the canary rollback latch: below
// MinRequests no verdict, past it exactly one, and only while
// canaried.
func TestMonitorRollbackVerdict(t *testing.T) {
	m, err := NewMonitor(MonitorConfig{
		Dir: t.TempDir(), MinRequests: 10, MaxDisagreeRate: 0.5, Registry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Shadow-only disagreements never trigger, regardless of volume.
	for i := 0; i < 50; i++ {
		if rb, _ := m.RecordShadow("d", "live", []bool{false}, []bool{true}, nil, 1, 2, false); rb {
			t.Fatal("rollback verdict while not canaried")
		}
	}
	m.ResetWindow()

	fired := 0
	for i := 0; i < 50; i++ {
		rb, reason := m.RecordShadow("d", "candidate", []bool{false}, []bool{true}, nil, 1, 2, true)
		if rb {
			fired++
			if reason == "" {
				t.Fatal("rollback verdict with empty reason")
			}
			if w := m.Window(); w.Requests < 10 {
				t.Fatalf("verdict fired at %d requests, below MinRequests", w.Requests)
			}
		}
	}
	if fired != 1 {
		t.Fatalf("rollback verdict fired %d times, want exactly once (latched)", fired)
	}

	// A window reset re-arms the latch for the next candidate.
	m.ResetWindow()
	fired = 0
	for i := 0; i < 50; i++ {
		if rb, _ := m.RecordShadow("d", "candidate", []bool{false}, []bool{true}, nil, 1, 3, true); rb {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("rollback verdict after reset fired %d times, want once", fired)
	}
}
