package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. The layer is
// the part of the name before the first dot ("campaign.run" belongs to
// campaign). Times are nanoseconds since the tracer started.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // -1 for a root span
	Workload string `json:"workload"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op that costs a nil check.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// start opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, End: -1, Parent: parent, Workload: t.workload})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// record adds a span that was timed elsewhere (per-request stages are
// timed with plain clocks and only a sample of them is kept as spans).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(start.Sub(t.t0)),
		End: int64(end.Sub(t.t0)), Parent: parent, Workload: t.workload})
	return id
}

// total sums the durations of the closed spans named name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			d += s.dur()
		}
	}
	return time.Duration(d)
}

// coverage returns the share of span root's interval covered by its
// direct children.
func (t *tracer) coverage(root int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	d := t.spans[root].dur()
	if d <= 0 {
		return 0
	}
	return 1 - float64(self[root])/float64(d)
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover (children may overlap each other
// when they run concurrently; the union is subtracted once).
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, curLo, curHi int64 = 0, 0, -1
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// write stores the spans as JSON lines and a per-layer self-time
// summary under dir, and prints the summary to log.
func (t *tracer) write(dir string, seed uint64, log io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", t.workload, seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	summary := summarize(t.spans)
	if err := os.WriteFile(base+".selftime.txt", []byte(summary), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "edembench: traced %d spans -> %s.spans.jsonl\n%s", len(t.spans), base, summary)
	return nil
}

// summarize renders self time per layer and per span name. Shares are
// of the summed root-span time, so a layer's share is the part of the
// traced work that was spent in its own code rather than in callees.
func summarize(spans []span) string {
	self := selfTimes(spans)
	var rootTotal int64
	byLayer := map[string]int64{}
	type agg struct {
		calls      int
		total, own int64
	}
	byName := map[string]*agg{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		if s.Parent < 0 {
			rootTotal += s.dur()
		}
		byLayer[s.layer()] += self[i]
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.calls++
		a.total += s.dur()
		a.own += self[i]
	}
	var sb strings.Builder
	share := func(ns int64) float64 {
		if rootTotal == 0 {
			return 0
		}
		return 100 * float64(ns) / float64(rootTotal)
	}
	fmt.Fprintf(&sb, "self time by layer (of %.3fs in root spans)\n", time.Duration(rootTotal).Seconds())
	layers := sortedKeys(byLayer)
	sort.SliceStable(layers, func(a, b int) bool { return byLayer[layers[a]] > byLayer[layers[b]] })
	for _, l := range layers {
		fmt.Fprintf(&sb, "  %-12s %12.6fs %6.2f%%\n", l, time.Duration(byLayer[l]).Seconds(), share(byLayer[l]))
	}
	fmt.Fprintf(&sb, "spans by name\n  %-28s %8s %12s %12s\n", "name", "calls", "total_s", "self_s")
	for _, n := range sortedKeys(byName) {
		a := byName[n]
		fmt.Fprintf(&sb, "  %-28s %8d %12.6f %12.6f\n", n, a.calls,
			time.Duration(a.total).Seconds(), time.Duration(a.own).Seconds())
	}
	return sb.String()
}
