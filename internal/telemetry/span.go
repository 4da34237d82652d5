package telemetry

import (
	"context"
	"runtime/metrics"
	"time"
)

// Context keys. Registry and span path travel separately: the path is
// what makes nested StartSpan calls aggregate under "parent/child".
type (
	registryKey struct{}
	pathKey     struct{}
)

// WithRegistry returns a context that carries r; instrumented pipeline
// stages called with the returned context report into r instead of the
// process default. Passing nil r returns ctx unchanged.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, registryKey{}, r)
}

// FromContext returns the registry carried by ctx, falling back to the
// process default. Returns nil when telemetry is disabled on both
// paths — callers use the result directly; every method is nil-safe.
func FromContext(ctx context.Context) *Registry {
	if ctx != nil {
		if r, ok := ctx.Value(registryKey{}).(*Registry); ok {
			return r
		}
	}
	return Default()
}

// Span measures one execution of a named pipeline phase. Spans nest
// through context: a span started from a context whose active span path
// is "refine" and named "cell" aggregates under "refine/cell". Ending a
// span folds its wall-clock, one call count and the heap allocations
// that occurred during it into the phase aggregate; individual spans
// are not retained, so span volume does not grow memory.
type Span struct {
	ph      *phase
	start   time.Time
	allocs0 uint64
}

// StartSpan begins a phase span named name. When no registry is active
// (neither in ctx nor as the process default) it returns ctx unchanged
// and a nil span whose End is a no-op — the disabled fast path costs
// two pointer lookups and no allocation.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	reg := FromContext(ctx)
	if reg == nil {
		return ctx, nil
	}
	path := name
	if parent, ok := ctx.Value(pathKey{}).(string); ok && parent != "" {
		path = parent + "/" + name
	}
	s := &Span{ph: reg.phase(path), start: time.Now(), allocs0: heapAllocs()}
	return context.WithValue(ctx, pathKey{}, path), s
}

// End finishes the span and returns its wall-clock duration. Safe on a
// nil span (returns zero). End must be called at most once.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.ph.ns.Add(int64(d))
	s.ph.count.Add(1)
	if a := heapAllocs(); a > s.allocs0 {
		s.ph.allocs.Add(int64(a - s.allocs0))
	}
	return d
}

// heapAllocsSample names the runtime metric used for per-span
// allocation deltas: cumulative heap objects allocated. runtime/metrics
// reads are cheap (no stop-the-world), but the count is process-wide,
// so spans that overlap concurrent work attribute each other's
// allocations; treat the column as an upper bound under parallelism.
// The runtime also publishes small-object counts only when a P hands
// back a cached span (on refill or at a GC), so a short span can miss
// or borrow up to one span's worth of objects per size class.
const heapAllocsSample = "/gc/heap/allocs:objects"

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: heapAllocsSample}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
