package tree

import (
	"math"
	"reflect"
	"testing"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// countThenFill is the two-way numeric partition splitTwoWay replaced,
// kept as its reference: count the left rows, then compact them in
// place while the right rows go to a buffer that is copied back behind
// them. It returns the left count.
func countThenFill(seg []int32, col []float64, threshold float64) int {
	nLeft := 0
	for _, r := range seg {
		if col[r] <= threshold {
			nLeft++
		}
	}
	tail := make([]int32, 0, len(seg)-nLeft)
	fill := 0
	for _, r := range seg {
		if col[r] <= threshold {
			seg[fill] = r
			fill++
			continue
		}
		tail = append(tail, r)
	}
	copy(seg[nLeft:], tail)
	return nLeft
}

// edgyDataset draws numeric columns from a small pool that forces ties,
// signed zeros and infinities, beside one nominal attribute so the
// workspace also carries a nil sort-order slot.
func edgyDataset(n int, rng *stats.RNG) *dataset.Dataset {
	pool := []float64{math.Inf(-1), -2.5, -1, math.Copysign(0, -1), 0, 0.5, 1, 3, math.Inf(1)}
	d := dataset.New("edgy", []dataset.Attribute{
		dataset.NumericAttr("a"),
		dataset.NominalAttr("m", "m0", "m1"),
		dataset.NumericAttr("b"),
	}, []string{"neg", "pos"})
	draw := func() float64 {
		if rng.Intn(4) == 0 {
			return rng.Float64()*8 - 4
		}
		return pool[rng.Intn(len(pool))]
	}
	for i := 0; i < n; i++ {
		d.MustAdd(dataset.Instance{
			Values: []float64{draw(), float64(rng.Intn(2)), draw()},
			Class:  rng.Intn(2),
			Weight: 1,
		})
	}
	return d
}

// thresholds returns every distinct value of col together with its
// nearest neighbours just below and just above.
func thresholds(col []float64) []float64 {
	seen := map[uint64]bool{} // keyed by bits, so -0 and +0 both stay
	var out []float64
	for _, v := range col {
		for _, t := range []float64{v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1))} {
			if !seen[math.Float64bits(t)] {
				seen[math.Float64bits(t)] = true
				out = append(out, t)
			}
		}
	}
	return out
}

// workspace copies the builder's row list and sort orders.
func workspace(fb *fastBuilder) (rows []int32, sorted [][]int32) {
	rows = append([]int32(nil), fb.rows...)
	for _, o := range fb.sorted {
		if o == nil {
			sorted = append(sorted, nil)
			continue
		}
		sorted = append(sorted, append([]int32(nil), o...))
	}
	return rows, sorted
}

// TestSplitTwoWayMatchesCountThenFill checks the branch-free two-way
// partition against the count-then-fill reference on random columns
// with ties, ±0 and ±Inf, at thresholds equal to each value and just
// below and above it: the children's ranges, row lists and every sort
// order must be identical. Each root split is followed by a split of
// its right child on the other attribute, so ranges that do not start
// at zero are covered too.
func TestSplitTwoWayMatchesCountThenFill(t *testing.T) {
	numeric := []int{0, 2}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := stats.NewRNG(seed)
		d := edgyDataset(1+rng.Intn(120), rng)
		fb := newViewBuilder(Config{}, dataset.NewStore(d, nil).IdentityView())
		for ai, a := range numeric {
			other := numeric[1-ai]
			for _, th := range thresholds(fb.cols[a]) {
				root := fb.rootNode()
				wantRows, wantSorted := workspace(fb)
				nLeft := countThenFill(wantRows, fb.cols[a], th)
				for _, o := range wantSorted {
					if o != nil {
						countThenFill(o, fb.cols[a], th)
					}
				}
				base := fb.partition(root, &split{attr: a, threshold: th})
				kids := fb.children[base:]
				if len(kids) != 2 || kids[0] != (fastNode{0, nLeft}) || kids[1] != (fastNode{nLeft, root.hi}) {
					t.Fatalf("seed %d attr %d threshold %v: children %v, want split at %d of %d", seed, a, th, kids, nLeft, root.hi)
				}
				gotRows, gotSorted := workspace(fb)
				if !reflect.DeepEqual(gotRows, wantRows) || !reflect.DeepEqual(gotSorted, wantSorted) {
					t.Fatalf("seed %d attr %d threshold %v: workspace differs from count-then-fill", seed, a, th)
				}

				// Split the right child on the other attribute at one of
				// its own values.
				right := kids[1]
				fb.children = fb.children[:base]
				if right.lo == right.hi {
					continue
				}
				th2 := fb.cols[other][fb.rows[right.lo+rng.Intn(right.hi-right.lo)]]
				nLeft2 := countThenFill(wantRows[right.lo:right.hi], fb.cols[other], th2)
				for _, o := range wantSorted {
					if o != nil {
						countThenFill(o[right.lo:right.hi], fb.cols[other], th2)
					}
				}
				base = fb.partition(right, &split{attr: other, threshold: th2})
				if got := fb.children[base]; got != (fastNode{right.lo, right.lo + nLeft2}) {
					t.Fatalf("seed %d: nested left child %v, want [%d,%d)", seed, got, right.lo, right.lo+nLeft2)
				}
				gotRows, gotSorted = workspace(fb)
				if !reflect.DeepEqual(gotRows, wantRows) || !reflect.DeepEqual(gotSorted, wantSorted) {
					t.Fatalf("seed %d attr %d threshold %v: nested workspace differs from count-then-fill", seed, other, th2)
				}
				fb.children = fb.children[:base]
			}
		}
	}
}
