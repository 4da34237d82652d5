package telemetry

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSpanDisabledFastPath(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	SetDefault(nil)

	ctx := context.Background()
	ctx2, span := StartSpan(ctx, "phase")
	if span != nil {
		t.Fatal("disabled StartSpan must return nil span")
	}
	if ctx2 != ctx {
		t.Fatal("disabled StartSpan must not derive a new context")
	}
	if d := span.End(); d != 0 {
		t.Fatal("nil span End must return 0")
	}
}

func TestSpanNesting(t *testing.T) {
	r := New()
	ctx := WithRegistry(context.Background(), r)

	ctx1, outer := StartSpan(ctx, "refine")
	for i := 0; i < 3; i++ {
		_, inner := StartSpan(ctx1, "cell")
		time.Sleep(time.Millisecond)
		if inner.End() <= 0 {
			t.Fatal("span duration must be positive")
		}
	}
	outer.End()

	snap := r.Snapshot()
	root, ok := snap.Phases["refine"]
	if !ok {
		t.Fatalf("missing root phase, got %v", snap.Phases)
	}
	cell, ok := snap.Phases["refine/cell"]
	if !ok {
		t.Fatalf("missing nested phase, got %v", snap.Phases)
	}
	if root.Count != 1 || cell.Count != 3 {
		t.Fatalf("counts root=%d cell=%d, want 1 and 3", root.Count, cell.Count)
	}
	if root.NS < cell.NS {
		t.Fatalf("outer span (%d ns) must cover nested spans (%d ns)", root.NS, cell.NS)
	}
	if snap.RootPhaseNS() != root.NS {
		t.Fatalf("RootPhaseNS %d must count only top-level phases (%d)", snap.RootPhaseNS(), root.NS)
	}
}

func TestSpanSiblingsShareAggregate(t *testing.T) {
	r := New()
	ctx := WithRegistry(context.Background(), r)
	for i := 0; i < 5; i++ {
		_, s := StartSpan(ctx, "campaign")
		s.End()
	}
	if got := r.Snapshot().Phases["campaign"].Count; got != 5 {
		t.Fatalf("aggregate count = %d, want 5", got)
	}
}

func TestContextRegistryOverridesDefault(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	def := New()
	SetDefault(def)

	local := New()
	ctx := WithRegistry(context.Background(), local)
	_, s := StartSpan(ctx, "p")
	s.End()
	if n := local.Snapshot().Phases["p"].Count; n != 1 {
		t.Fatalf("context registry must receive the span, got %d", n)
	}
	if n := def.Snapshot().Phases["p"].Count; n != 0 {
		t.Fatalf("default registry must not receive the span, got %d", n)
	}

	// Without a context registry, spans fall back to the default.
	_, s2 := StartSpan(context.Background(), "q")
	s2.End()
	if n := def.Snapshot().Phases["q"].Count; n != 1 {
		t.Fatalf("default registry fallback broken, got %d", n)
	}
}

// The runtime publishes small-object allocation counts only when a P
// hands its cached span back, on refill or at a GC. Without a flush on
// each side of the window, the count includes objects from before
// StartSpan and misses those still in the cached span at End, so
// repeated runs saw as few as 896 of the 1000 objects. A GC before the
// span and another inside it, just before End, flush every P's cache,
// making the window's count exact.
func TestSpanAllocsTracked(t *testing.T) {
	r := New()
	ctx := WithRegistry(context.Background(), r)
	runtime.GC()
	_, s := StartSpan(ctx, "alloc")
	sink := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 64))
	}
	runtime.GC()
	s.End()
	if len(sink) != 1000 {
		t.Fatal("unreachable")
	}
	if got := r.Snapshot().Phases["alloc"].Allocs; got < 1000 {
		t.Fatalf("allocs = %d, want >= 1000", got)
	}
}

func TestFormatTreeRendersNesting(t *testing.T) {
	r := New()
	ctx := WithRegistry(context.Background(), r)
	c1, outer := StartSpan(ctx, "refine")
	_, inner := StartSpan(c1, "cell")
	inner.End()
	outer.End()
	tree := r.Snapshot().FormatTree()
	if !strings.Contains(tree, "refine") || !strings.Contains(tree, "  cell") {
		t.Fatalf("tree missing indented child:\n%s", tree)
	}
	if !strings.Contains(tree, "wall ") {
		t.Fatalf("tree missing wall summary:\n%s", tree)
	}
}
