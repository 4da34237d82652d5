package sampling

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// imbalanced builds a dataset with nNeg negatives (class 0) clustered
// near the origin and nPos positives (class 1) on a line, mirroring
// fault-injection imbalance.
func imbalanced(nNeg, nPos int, seed uint64) *dataset.Dataset {
	d := dataset.New("imb", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
		dataset.NominalAttr("m", "a", "b"),
	}, []string{"neg", "pos"})
	rng := stats.NewRNG(seed)
	for i := 0; i < nNeg; i++ {
		d.MustAdd(dataset.Instance{
			Values: []float64{rng.Float64(), rng.Float64(), float64(rng.Intn(2))},
			Class:  0, Weight: 1,
		})
	}
	for i := 0; i < nPos; i++ {
		base := 10 + rng.Float64()
		d.MustAdd(dataset.Instance{
			Values: []float64{base, base * 2, float64(rng.Intn(2))},
			Class:  1, Weight: 1,
		})
	}
	return d
}

func classCounts(v *dataset.View) (neg, pos int) {
	classes := v.Classes()
	for _, r := range v.Rows() {
		if classes[r] == 0 {
			neg++
		} else {
			pos++
		}
	}
	return neg, pos
}

func TestUndersample(t *testing.T) {
	d := imbalanced(100, 10, 1)
	v, err := UndersampleView(dataset.NewStore(d, nil), 0, 30, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	neg, pos := classCounts(v)
	if neg != 30 {
		t.Errorf("negatives = %d, want 30", neg)
	}
	if pos != 10 {
		t.Errorf("positives = %d, want all 10 kept", pos)
	}
}

func TestUndersampleKeepsAtLeastOne(t *testing.T) {
	d := imbalanced(10, 2, 2)
	v, err := UndersampleView(dataset.NewStore(d, nil), 0, 1, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	neg, _ := classCounts(v)
	if neg < 1 {
		t.Errorf("negatives = %d, want >= 1", neg)
	}
}

func TestUndersampleErrors(t *testing.T) {
	st := dataset.NewStore(imbalanced(10, 2, 3), nil)
	if _, err := UndersampleView(st, 0, 0, stats.NewRNG(1)); !errors.Is(err, ErrBadPercent) {
		t.Errorf("percent 0: %v", err)
	}
	if _, err := UndersampleView(st, 0, 101, stats.NewRNG(1)); !errors.Is(err, ErrBadPercent) {
		t.Errorf("percent 101: %v", err)
	}
	if _, err := UndersampleView(st, 5, 50, stats.NewRNG(1)); err == nil {
		t.Error("bad class should fail")
	}
}

func TestOversample(t *testing.T) {
	d := imbalanced(100, 10, 4)
	v, err := OversampleView(dataset.NewStore(d, nil), 1, 300, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	neg, pos := classCounts(v)
	if neg != 100 {
		t.Errorf("negatives = %d, want untouched 100", neg)
	}
	if pos != 40 { // 10 originals + 300% = 30 copies
		t.Errorf("positives = %d, want 40", pos)
	}
	// Replacement copies are exact duplicates of existing positives.
	seen := map[float64]bool{}
	for i := range d.Instances {
		if d.Instances[i].Class == 1 {
			seen[d.Instances[i].Values[0]] = true
		}
	}
	out := v.Materialize()
	for i := range out.Instances {
		if out.Instances[i].Class == 1 && !seen[out.Instances[i].Values[0]] {
			t.Fatal("oversampling invented a new value; expected replacement copies")
		}
	}
}

func TestSMOTECounts(t *testing.T) {
	d := imbalanced(100, 10, 5)
	v, err := SMOTEView(dataset.NewStore(d, nil), 1, 500, 3, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	_, pos := classCounts(v)
	if pos != 60 { // 10 + 500%
		t.Errorf("positives = %d, want 60", pos)
	}
}

func TestSMOTESyntheticsInterpolate(t *testing.T) {
	// Positives lie on the line y = 2x; synthetic instances must stay
	// on the segment between a seed and a neighbour — hence on the line.
	d := imbalanced(50, 12, 6)
	v, err := SMOTEView(dataset.NewStore(d, nil), 1, 400, 5, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	out := v.Materialize()
	for i := d.Len(); i < out.Len(); i++ {
		in := out.Instances[i]
		if in.Class != 1 {
			t.Fatal("synthetic instance with wrong class")
		}
		x, y := in.Values[0], in.Values[1]
		if math.Abs(y-2*x) > 1e-9 {
			t.Fatalf("synthetic (%v, %v) off the positive manifold", x, y)
		}
		if x < 10 || x > 11 {
			t.Fatalf("synthetic x=%v outside the convex hull of positives", x)
		}
		// Nominal values must come from the domain.
		if m := in.Values[2]; m != 0 && m != 1 {
			t.Fatalf("synthetic nominal = %v", m)
		}
	}
}

func TestSMOTEUnderHundredPercent(t *testing.T) {
	d := imbalanced(50, 20, 7)
	v, err := SMOTEView(dataset.NewStore(d, nil), 1, 50, 3, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	_, pos := classCounts(v)
	if pos != 30 { // 20 + 50% of 20
		t.Errorf("positives = %d, want 30", pos)
	}
}

func TestSMOTEErrors(t *testing.T) {
	st := dataset.NewStore(imbalanced(50, 5, 8), nil)
	if _, err := SMOTEView(st, 1, 100, 0, stats.NewRNG(1)); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := SMOTEView(st, 1, -5, 3, stats.NewRNG(1)); !errors.Is(err, ErrBadPercent) {
		t.Errorf("percent<0: %v", err)
	}
	empty := dataset.NewStore(imbalanced(50, 0, 9), nil)
	if _, err := SMOTEView(empty, 1, 100, 3, stats.NewRNG(1)); !errors.Is(err, ErrNoMinority) {
		t.Errorf("no minority: %v", err)
	}
}

func TestSMOTESingleMinorityInstance(t *testing.T) {
	// With one positive there are no neighbours: SMOTE degrades to
	// replacement copies rather than failing.
	d := imbalanced(20, 1, 10)
	v, err := SMOTEView(dataset.NewStore(d, nil), 1, 300, 5, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	_, pos := classCounts(v)
	if pos != 4 {
		t.Errorf("positives = %d, want 4", pos)
	}
}

func TestSamplingDoesNotMutateInput(t *testing.T) {
	d := imbalanced(30, 6, 11)
	before := d.Clone()
	st := dataset.NewStore(d, nil)
	cols := make([][]float64, len(st.Cols()))
	for a, col := range st.Cols() {
		cols[a] = append([]float64(nil), col...)
	}
	if _, err := SMOTEView(st, 1, 200, 3, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := UndersampleView(st, 0, 50, stats.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols, st.Cols()) || st.Len() != before.Len() {
		t.Fatal("store mutated")
	}
	if !reflect.DeepEqual(before.Instances, d.Instances) {
		t.Fatal("input dataset mutated")
	}
}

func TestSamplingDeterminism(t *testing.T) {
	st := dataset.NewStore(imbalanced(60, 12, 12), nil)
	a, err := SMOTEView(st, 1, 300, 4, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SMOTEView(st, 1, 300, 4, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Materialize(), b.Materialize()) {
		t.Fatal("same-seed SMOTE differs")
	}
}

func TestSMOTEProperty(t *testing.T) {
	// Output size always equals input + round(pos * pct/100).
	f := func(seed uint64, posRaw, pctRaw uint8) bool {
		nPos := int(posRaw%20) + 2
		pct := float64(int(pctRaw)%900 + 10)
		d := imbalanced(30, nPos, seed)
		v, err := SMOTEView(dataset.NewStore(d, nil), 1, pct, 3, stats.NewRNG(seed))
		if err != nil {
			return false
		}
		want := d.Len() + int(math.Round(float64(nPos)*pct/100))
		return v.Len() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// A cached index truncated to k must generate exactly what a direct
// SMOTE pass with k neighbours generates.
func TestNeighborIndexMatchesDirectSMOTE(t *testing.T) {
	st := dataset.NewStore(imbalanced(80, 15, 13), nil)
	ni, err := BuildViewIndex(st, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 5, 7} {
		a, err := ni.SMOTEView(300, k, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		b, err := SMOTEView(st, 1, 300, k, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Materialize(), b.Materialize()) {
			t.Fatalf("k=%d: cached and direct SMOTE disagree", k)
		}
	}
}

func TestNeighborIndexKBounds(t *testing.T) {
	st := dataset.NewStore(imbalanced(20, 6, 14), nil)
	ni, err := BuildViewIndex(st, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ni.SMOTEView(100, 4, stats.NewRNG(1)); !errors.Is(err, ErrBadK) {
		t.Errorf("k beyond index: %v", err)
	}
	if _, err := ni.SMOTEView(100, 0, stats.NewRNG(1)); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: %v", err)
	}
	if _, err := BuildViewIndex(st, 1, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("maxK=0: %v", err)
	}
	if _, err := BuildViewIndex(st, 9, 3); err == nil {
		t.Error("bad class should fail")
	}
}

func TestNeighborIndexOversample(t *testing.T) {
	st := dataset.NewStore(imbalanced(40, 8, 15), nil)
	ni, err := BuildViewIndex(st, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ni.OversampleView(200, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	_, pos := classCounts(v)
	if pos != 24 {
		t.Errorf("positives = %d, want 24", pos)
	}
	direct, err := OversampleView(st, 1, 200, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v.Rows(), direct.Rows()) {
		t.Error("index and direct oversampling disagree")
	}
}

func TestNearestNeighborsAreNearest(t *testing.T) {
	// Three tight positive clusters: neighbours must come from the same
	// cluster.
	d := dataset.New("c", []dataset.Attribute{dataset.NumericAttr("x")}, []string{"neg", "pos"})
	d.MustAdd(dataset.Instance{Values: []float64{500}, Class: 0, Weight: 1})
	centers := []float64{0, 100, 200}
	for _, c := range centers {
		for k := 0; k < 3; k++ {
			d.MustAdd(dataset.Instance{Values: []float64{c + float64(k)}, Class: 1, Weight: 1})
		}
	}
	st := dataset.NewStore(d, nil)
	minIdx, err := storeMinority(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := st.Cols()[0]
	for i, nn := range nearestNeighbors(st, minIdx, 2) {
		self := x[minIdx[i]]
		for _, j := range nn {
			if math.Abs(x[j]-self) > 5 {
				t.Fatalf("neighbour of %v is %v: wrong cluster", self, x[j])
			}
		}
	}
}

// bruteNeighbors is the reference neighbour search: every candidate's
// full distance, then a full sort by (distance, row) with a NaN
// distance after every number. It is the scan nearestNeighbors
// replaced, kept as the oracle the top-k search must match.
func bruteNeighbors(st *dataset.Store, minIdx []int, k int) [][]int {
	attrs := st.Attrs()
	cols := st.Cols()
	lo, hi := columnRanges(st)
	dist := func(a, b int) float64 {
		s := 0.0
		for i, col := range cols {
			av, bv := col[a], col[b]
			if dataset.IsMissing(av) || dataset.IsMissing(bv) {
				s++
				continue
			}
			if attrs[i].Type == dataset.Nominal {
				if av != bv {
					s++
				}
				continue
			}
			span := hi[i] - lo[i]
			if span <= 0 {
				continue
			}
			diff := (av - bv) / span
			s += diff * diff
		}
		return s
	}
	type cand struct {
		idx int
		d   float64
	}
	res := make([][]int, len(minIdx))
	for i, ii := range minIdx {
		cands := make([]cand, 0, len(minIdx)-1)
		for j, jj := range minIdx {
			if i != j {
				cands = append(cands, cand{idx: jj, d: dist(ii, jj)})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			da, db := cands[a].d, cands[b].d
			if an, bn := math.IsNaN(da), math.IsNaN(db); an != bn {
				return bn
			} else if !an && da != db {
				return da < db
			}
			return cands[a].idx < cands[b].idx
		})
		nn := make([]int, min(k, len(cands)))
		for x := range nn {
			nn[x] = cands[x].idx
		}
		res[i] = nn
	}
	return res
}

// randomNeighborStore builds a store whose minority rows exercise every
// branch of the distance: coarse numeric values (distance ties), a
// zero-span column, a nominal column, missing values and duplicate
// rows.
func randomNeighborStore(rng *stats.RNG, nPos int, missing bool) *dataset.Store {
	d := dataset.New("nn", []dataset.Attribute{
		dataset.NumericAttr("a"),
		dataset.NumericAttr("flat"),
		dataset.NominalAttr("m", "x", "y", "z"),
		dataset.NumericAttr("b"),
	}, []string{"neg", "pos"})
	grid := float64(rng.Intn(6) + 2)
	for i := 0; i < nPos+10; i++ {
		class := 0
		if i%2 == 0 || i >= 20 {
			class = 1
		}
		if class == 1 && nPos == 0 {
			class = 0
		}
		var vs []float64
		if i > 0 && rng.Intn(6) == 0 {
			vs = append([]float64(nil), d.Instances[rng.Intn(i)].Values...)
		} else {
			vs = []float64{
				math.Floor(rng.Float64() * grid),
				3,
				float64(rng.Intn(3)),
				rng.Float64()*10 - 5,
			}
			if rng.Intn(3) == 0 {
				vs[3] = math.Floor(vs[3])
			}
		}
		if missing && rng.Intn(8) == 0 {
			vs[rng.Intn(len(vs))] = math.NaN()
		}
		if class == 1 {
			nPos--
		}
		d.MustAdd(dataset.Instance{Values: vs, Class: class, Weight: 1})
	}
	return dataset.NewStore(d, nil)
}

// The symmetric top-k search must return exactly the lists of the full
// sort, ties and degenerate shapes included.
func TestNearestNeighborsMatchBruteForce(t *testing.T) {
	rng := stats.NewRNG(91)
	for trial := 0; trial < 300; trial++ {
		nPos := 2 + rng.Intn(40)
		if trial%10 == 0 {
			nPos = 2
		}
		st := randomNeighborStore(rng, nPos, trial%3 != 0)
		minIdx, err := storeMinority(st, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := len(minIdx)
		for _, k := range []int{1, 2, 5, 14, m - 1, m, m + 3} {
			if k < 1 {
				continue
			}
			got := nearestNeighbors(st, minIdx, k)
			want := bruteNeighbors(st, minIdx, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (m=%d, k=%d): top-k lists differ from the full sort\ngot  %v\nwant %v", trial, m, k, got, want)
			}
		}
		ni, err := BuildViewIndex(st, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteNeighbors(st, minIdx, 7); !reflect.DeepEqual(ni.lists, want) {
			t.Fatalf("trial %d: BuildViewIndex lists differ from the full sort", trial)
		}
	}
}

// A column holding ±Inf has an infinite span, so pairs involving an
// infinite value have NaN distance. Such neighbours rank after every
// numeric distance, in row order, whatever the sort algorithm.
func TestNearestNeighborsNaNDistanceOrder(t *testing.T) {
	d := dataset.New("inf", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
	}, []string{"neg", "pos"})
	inf := math.Inf(1)
	for _, row := range [][]float64{
		{0, 0}, {inf, 1}, {1, 2}, {-inf, 3}, {2, 4}, {inf, 5}, {0, 6}, {-inf, 7}, {3, 8},
	} {
		d.MustAdd(dataset.Instance{Values: row, Class: 1, Weight: 1})
	}
	d.MustAdd(dataset.Instance{Values: []float64{0, 0}, Class: 0, Weight: 1})
	st := dataset.NewStore(d, nil)
	minIdx, err := storeMinority(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	infinite := func(r int) bool { return math.IsInf(st.Cols()[0][r], 0) }
	for _, k := range []int{1, 3, 8} {
		got := nearestNeighbors(st, minIdx, k)
		if want := bruteNeighbors(st, minIdx, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: got %v, want %v", k, got, want)
		}
		for p, nn := range got {
			// Every pair with an infinite side is NaN: a finite row
			// lists its finite neighbours first, an infinite row lists
			// all neighbours in row order.
			if infinite(minIdx[p]) {
				if !sort.IntsAreSorted(nn) {
					t.Fatalf("k=%d row %d: NaN-distance neighbours out of row order: %v", k, minIdx[p], nn)
				}
				continue
			}
			seenNaN := false
			for _, q := range nn {
				if infinite(q) {
					seenNaN = true
				} else if seenNaN {
					t.Fatalf("k=%d row %d: numeric neighbour %d after a NaN one: %v", k, minIdx[p], q, nn)
				}
			}
		}
	}
	// The index built on this store feeds SMOTE deterministically.
	ni, err := BuildViewIndex(st, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ni.SMOTEView(200, 3, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ni.SMOTEView(200, 3, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Rows(), b.Rows()) {
		t.Fatal("same-seed SMOTE differs on an infinite column")
	}
}
