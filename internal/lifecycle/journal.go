package lifecycle

import (
	"encoding/json"
	"sync"

	"edem/internal/durable"
	"edem/internal/telemetry"
)

// Journal file names inside a lifecycle directory. Both are
// durable.Log files, the campaign journal's format: append-only JSONL,
// one record per line, every append fsynced, and a line truncated by a
// kill mid-append counted as torn on read and cut off on reopen.
const (
	// FeedbackName holds FeedbackRecord lines.
	FeedbackName = "feedback.jsonl"
	// DiffsName holds DiffRecord lines.
	DiffsName = "diffs.jsonl"
)

// ReadFeedback loads every decodable feedback record from path,
// reporting the number of torn (skipped) lines alongside.
func ReadFeedback(path string) (recs []FeedbackRecord, torn int, err error) {
	torn, err = durable.Scan(path, func(r FeedbackRecord) error {
		recs = append(recs, r)
		return nil
	})
	return recs, torn, err
}

// ReadDiffs loads every decodable verdict-diff record from path,
// reporting the number of torn (skipped) lines alongside.
func ReadDiffs(path string) (recs []DiffRecord, torn int, err error) {
	torn, err = durable.Scan(path, func(r DiffRecord) error {
		recs = append(recs, r)
		return nil
	})
	return recs, torn, err
}

// appendRecord marshals rec and appends it to log as one fsynced line.
func appendRecord(log *durable.Log, rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return log.Append(data)
}

// asyncJournal decouples journal appends from the serve request path:
// records queue into a bounded channel and a single writer goroutine
// performs the fsynced appends. When the queue is full the record is
// dropped and counted (lifecycle.journal_drops) — the serving hot path
// must never block on disk. Close drains the queue before returning.
type asyncJournal struct {
	log   *durable.Log
	ch    chan any
	drops *telemetry.Counter
	wg    sync.WaitGroup
	once  sync.Once
}

// newAsyncJournal starts the writer goroutine over log with the given
// queue depth.
func newAsyncJournal(log *durable.Log, depth int, drops *telemetry.Counter) *asyncJournal {
	if depth <= 0 {
		depth = 256
	}
	a := &asyncJournal{log: log, ch: make(chan any, depth), drops: drops}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		for rec := range a.ch {
			// A failed append is operational data lost, not a serving
			// fault; count it with the drops.
			if err := appendRecord(log, rec); err != nil {
				drops.Inc()
			}
		}
	}()
	return a
}

// append enqueues one record without blocking; a full queue drops it
// and bumps the drop counter.
func (a *asyncJournal) append(rec any) {
	select {
	case a.ch <- rec:
	default:
		a.drops.Inc()
	}
}

// close drains pending records, stops the writer and closes the file.
func (a *asyncJournal) close() error {
	a.once.Do(func() {
		close(a.ch)
	})
	a.wg.Wait()
	return a.log.Close()
}
