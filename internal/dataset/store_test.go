package dataset

import (
	"math"
	"sort"
	"testing"

	"edem/internal/stats"
)

func storeTestDataset(n int, seed uint64) *Dataset {
	attrs := []Attribute{
		NumericAttr("x"),
		NominalAttr("mode", "a", "b", "c"),
		NumericAttr("y"),
	}
	d := New("store-test", attrs, []string{"neg", "pos"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x := rng.Float64() * 10
		mode := float64(rng.Intn(3))
		y := rng.Float64() * 5
		class := 0
		if x > 7 {
			class = 1
		}
		d.MustAdd(Instance{Values: []float64{x, mode, y}, Class: class, Weight: 1})
	}
	return d
}

// checkSorted verifies a view's per-attribute orders: each numeric
// order must be a value-ascending permutation of exactly the view's
// rows (duplicates included).
func checkSorted(t *testing.T, v *View) {
	t.Helper()
	want := make(map[int32]int)
	for _, r := range v.Rows() {
		want[r]++
	}
	for a, attr := range v.Attrs() {
		if attr.Type != Numeric {
			if v.Sorted()[a] != nil {
				t.Fatalf("attr %d: nominal attribute has a sort order", a)
			}
			continue
		}
		idx := v.Sorted()[a]
		if len(idx) != v.Len() {
			t.Fatalf("attr %d: sorted len %d, want %d", a, len(idx), v.Len())
		}
		col := v.Cols()[a]
		got := make(map[int32]int)
		for i, r := range idx {
			got[r]++
			if i > 0 && col[idx[i-1]] > col[r] {
				t.Fatalf("attr %d: order violated at %d (%v > %v)", a, i, col[idx[i-1]], col[r])
			}
		}
		for r, c := range want {
			if got[r] != c {
				t.Fatalf("attr %d: row %d appears %d times in order, want %d", a, r, got[r], c)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("attr %d: order covers %d distinct rows, want %d", a, len(got), len(want))
		}
	}
}

func TestStoreMatchesSubset(t *testing.T) {
	d := storeTestDataset(60, 3)
	rows := []int{5, 1, 12, 40, 33, 7}
	st := NewStore(d, rows)
	sub := d.Subset(rows)
	md := st.IdentityView().Materialize()
	if md.Len() != sub.Len() {
		t.Fatalf("store holds %d rows, want %d", md.Len(), sub.Len())
	}
	for i := range sub.Instances {
		a, b := sub.Instances[i], md.Instances[i]
		if a.Class != b.Class || a.Weight != b.Weight {
			t.Fatalf("row %d: class/weight mismatch", i)
		}
		for j := range a.Values {
			if a.Values[j] != b.Values[j] {
				t.Fatalf("row %d attr %d: %v != %v", i, j, a.Values[j], b.Values[j])
			}
		}
	}
	checkSorted(t, st.IdentityView())
}

func TestStoreSortMatchesSortSlice(t *testing.T) {
	// The store's permutation must equal sort.Slice on the same
	// comparator and input sequence — ties included — so view-based
	// induction partitions rows exactly like the instance path.
	d := storeTestDataset(100, 9)
	// Force ties.
	for i := 0; i < 100; i += 3 {
		d.Instances[i].Values[0] = 5
	}
	st := NewStore(d, nil)
	for a, attr := range d.Attrs {
		if attr.Type != Numeric {
			continue
		}
		want := make([]int32, d.Len())
		for i := range want {
			want[i] = int32(i)
		}
		col := st.Cols()[a]
		sort.Slice(want, func(i, j int) bool { return col[want[i]] < col[want[j]] })
		got := st.Sorted()[a]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("attr %d: permutation diverges at %d: %d != %d", a, i, got[i], want[i])
			}
		}
	}
}

func TestSelectView(t *testing.T) {
	d := storeTestDataset(50, 5)
	st := NewStore(d, nil)
	rows := []int32{49, 3, 17, 8, 30}
	v := st.SelectView(rows)
	if v.Len() != len(rows) {
		t.Fatalf("len %d, want %d", v.Len(), len(rows))
	}
	checkSorted(t, v)
	md := v.Materialize()
	for i, r := range rows {
		if md.Instances[i].Values[0] != d.Instances[r].Values[0] {
			t.Fatalf("row %d: wrong instance", i)
		}
	}
}

func TestRepeatView(t *testing.T) {
	d := storeTestDataset(40, 7)
	st := NewStore(d, nil)
	extra := []int32{3, 3, 17, 0, 39, 3}
	v := st.RepeatView(extra)
	if v.Len() != 40+len(extra) {
		t.Fatalf("len %d, want %d", v.Len(), 40+len(extra))
	}
	if v.Appended() != len(extra) {
		t.Fatalf("appended %d, want %d", v.Appended(), len(extra))
	}
	checkSorted(t, v)
	md := v.Materialize()
	for i, r := range extra {
		got := md.Instances[40+i]
		if got.Values[0] != d.Instances[r].Values[0] || got.Class != d.Instances[r].Class {
			t.Fatalf("duplicate %d: wrong source row", i)
		}
	}
}

func TestExtendView(t *testing.T) {
	d := storeTestDataset(30, 11)
	st := NewStore(d, nil)
	syn := []Synthetic{
		{Values: []float64{2.5, 1, 0.5}, Class: 1, Weight: 1},
		{Values: []float64{9.9, 0, 4.4}, Class: 1, Weight: 1},
		{Values: []float64{0.1, 2, 2.2}, Class: 1, Weight: 1},
	}
	v := st.ExtendView(syn)
	if v.Len() != 33 || v.Appended() != 3 {
		t.Fatalf("len %d appended %d", v.Len(), v.Appended())
	}
	checkSorted(t, v)
	md := v.Materialize()
	for i, s := range syn {
		got := md.Instances[30+i]
		if got.Class != s.Class {
			t.Fatalf("synthetic %d: class %d", i, got.Class)
		}
		for j := range s.Values {
			if got.Values[j] != s.Values[j] {
				t.Fatalf("synthetic %d attr %d: %v != %v", i, j, got.Values[j], s.Values[j])
			}
		}
	}
}

// Base rows must win ties against synthetic rows in the merged order,
// matching the stability of the instance path's root sort input (base
// instances precede synthetics in instance order).
func TestExtendViewTieOrder(t *testing.T) {
	d := New("ties", []Attribute{NumericAttr("x")}, []string{"n", "p"})
	for _, x := range []float64{1, 2, 2, 3} {
		d.MustAdd(Instance{Values: []float64{x}, Class: 0, Weight: 1})
	}
	st := NewStore(d, nil)
	v := st.ExtendView([]Synthetic{{Values: []float64{2}, Class: 1, Weight: 1}})
	idx := v.Sorted()[0]
	want := []int32{0, 1, 2, 4, 3}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("merged order %v, want %v", idx, want)
		}
	}
}

func TestStoreMissingDisablesSorted(t *testing.T) {
	d := storeTestDataset(20, 13)
	d.Instances[4].Values[2] = Missing
	st := NewStore(d, nil)
	if !st.HasMissing() {
		t.Fatal("missing not detected")
	}
	if st.Sorted() != nil {
		t.Fatal("sorted orders built despite missing values")
	}
	for _, v := range []*View{st.IdentityView(), st.SelectView([]int32{0, 1, 2}), st.RepeatView([]int32{5})} {
		if !v.HasMissing() {
			t.Fatal("view over a missing store must report missing")
		}
	}
}

// A synthetic row that interpolates to NaN (possible from infinite base
// values) must disable the merge order so induction falls back to the
// general missing-value builder, exactly like the instance path.
func TestExtendViewNaNSynthetic(t *testing.T) {
	d := storeTestDataset(10, 17)
	st := NewStore(d, nil)
	v := st.ExtendView([]Synthetic{{Values: []float64{math.NaN(), 0, 1}, Class: 1, Weight: 1}})
	if !v.HasMissing() {
		t.Fatal("NaN synthetic must disable the merge order")
	}
	if !v.Materialize().HasMissing() {
		t.Fatal("materialised fallback dataset must contain the NaN")
	}
}

func TestHasMissingCache(t *testing.T) {
	d := storeTestDataset(10, 19)
	if d.HasMissing() {
		t.Fatal("fresh dataset reported missing")
	}
	// Add maintains the cached answer incrementally.
	vals := make([]float64, 3)
	vals[0] = Missing
	d.MustAdd(Instance{Values: vals, Class: 0, Weight: 1})
	if !d.HasMissing() {
		t.Fatal("Add did not maintain the cache")
	}
	// Clone copies the full answer; subsetting only preserves a
	// missing-free answer.
	if !d.Clone().HasMissing() {
		t.Fatal("clone lost the missing answer")
	}
	clean := storeTestDataset(10, 19)
	_ = clean.HasMissing()
	sub := clean.Subset([]int{0, 1})
	if sub.missing != missingNo {
		t.Fatal("subset of a missing-free dataset should inherit the answer")
	}
	dirtySub := d.Subset([]int{0, 1})
	if dirtySub.missing != missingUnknown {
		t.Fatal("subset of a dataset with missing values must rescan")
	}
	// Direct mutation requires invalidation.
	clean.Instances[0].Values[0] = Missing
	if clean.HasMissing() {
		t.Fatal("stale cache expected before invalidation")
	}
	clean.InvalidateMissing()
	if !clean.HasMissing() {
		t.Fatal("invalidation did not force a rescan")
	}
}

func TestSharedVariantsAliasValues(t *testing.T) {
	d := storeTestDataset(6, 23)
	cs := d.CloneShared()
	if &cs.Instances[0].Values[0] != &d.Instances[0].Values[0] {
		t.Fatal("CloneShared must alias Values")
	}
	cs.Instances[0].Weight = 42
	if d.Instances[0].Weight == 42 {
		t.Fatal("CloneShared weight mutation leaked into the receiver")
	}
	ss := d.SubsetShared([]int{2, 4})
	if &ss.Instances[0].Values[0] != &d.Instances[2].Values[0] {
		t.Fatal("SubsetShared must alias Values")
	}
	deep := d.Subset([]int{2, 4})
	if &deep.Instances[0].Values[0] == &d.Instances[2].Values[0] {
		t.Fatal("Subset must deep-copy Values")
	}
}
