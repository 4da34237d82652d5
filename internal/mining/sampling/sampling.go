// Package sampling implements the class-imbalance treatments of paper
// §IV/§V-C: random undersampling of the majority class, oversampling of
// the minority class with replacement, and SMOTE (Chawla et al. [37]) —
// synthetic minority instances interpolated towards k nearest
// neighbours. Oversampling with replacement is the q=0 special case of
// SMOTE.
//
// Role in the methodology: the refinement axis of Step 4 — the grid
// searches these treatments' levels for the best mean AUC (Table IV),
// and the final fit applies the winner. Every treatment runs against a
// columnar dataset.Store and returns a dataset.View (DESIGN.md §10).
// Concurrency: transforms never mutate their store; they return fresh
// views, drawing variates from a caller-supplied RNG (callers give each
// grid cell its own). A NeighborIndex is immutable after construction
// and safe for concurrent reads across the grid cells of a fold.
package sampling

import (
	"errors"
	"fmt"
	"math"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// Errors returned by the sampling operations.
var (
	ErrNoMinority = errors.New("sampling: no instances of the minority class")
	ErrBadPercent = errors.New("sampling: bad percentage")
	ErrBadK       = errors.New("sampling: nearest neighbour count must be >= 1")
)

// synSpec describes one planned synthetic instance: the seed's position
// in minIdx, the chosen neighbour row (-1 for a plain replacement
// copy), and the interpolation factor q.
type synSpec struct {
	seedPos int
	nn      int
	q       float64
}

// planSmote consumes the RNG stream of a SMOTE/oversampling pass over m
// minority rows and returns the synthetic instances to generate,
// without touching any row data. neighbors is nil for plain
// replacement; a seed with no neighbours is copied too.
//
// percent >= 100: r = percent/100 instances per seed (fractional
// remainder distributed randomly). percent < 100: a percent% random
// subset of seeds contributes one instance each, per the SMOTE paper.
func planSmote(m int, neighbors [][]int, percent float64, rng *stats.RNG) ([]synSpec, error) {
	if percent <= 0 {
		return nil, fmt.Errorf("%w: %.1f%%", ErrBadPercent, percent)
	}
	pick := func(seedPos int) synSpec {
		sp := synSpec{seedPos: seedPos, nn: -1}
		if neighbors != nil && len(neighbors[seedPos]) > 0 {
			sp.nn = neighbors[seedPos][rng.Intn(len(neighbors[seedPos]))]
			sp.q = rng.Float64()
		}
		return sp
	}

	total := int(math.Round(float64(m) * percent / 100))
	if percent < 100 {
		seeds := make([]int, m)
		for i := range seeds {
			seeds[i] = i
		}
		rng.Shuffle(m, func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
		total = min(total, m)
		specs := make([]synSpec, 0, total)
		for _, pos := range seeds[:total] {
			specs = append(specs, pick(pos))
		}
		return specs, nil
	}
	whole := total / m
	extra := total - whole*m
	specs := make([]synSpec, 0, total)
	for pos := 0; pos < m; pos++ {
		for r := 0; r < whole; r++ {
			specs = append(specs, pick(pos))
		}
	}
	for e := 0; e < extra; e++ {
		specs = append(specs, pick(rng.Intn(m)))
	}
	return specs, nil
}

// nearestNeighbors returns, for each minority row of st, the store rows
// of its min(k, m-1) nearest minority-class neighbours under
// min-max-normalised Euclidean distance (nominal attributes contribute
// 0/1 mismatch, a missing value on either side 1), ordered by
// (distance, row) with a NaN distance — possible when a column holds
// ±Inf — ranked after every number.
//
// Each unordered pair's distance is computed once and offered to both
// rows' bounded top-k lists: d(a,b) and d(b,a) sum the same terms in
// the same attribute order, so they are equal bit for bit. A pair is
// abandoned as soon as its running sum ranks after both rows' current
// k-th distance; every term is >= 0, so the sum only grows and the
// abandoned pair could have entered neither list. Rows are offered to
// a list in ascending row order (pairs run i<j, outer i ascending), so
// a candidate that ties a listed distance ranks after it, and the lists
// equal a full (distance, row) sort of every candidate.
func nearestNeighbors(st *dataset.Store, minIdx []int, k int) [][]int {
	m := len(minIdx)
	k = min(k, m-1)
	attrs := st.Attrs()
	nA := len(attrs)
	lo, hi := columnRanges(st)
	span := make([]float64, nA)
	nominal := make([]bool, nA)
	flat := make([]bool, nA) // numeric with span <= 0: adds nothing
	for a := range attrs {
		span[a] = hi[a] - lo[a]
		nominal[a] = attrs[a].Type == dataset.Nominal
		flat[a] = !nominal[a] && span[a] <= 0
	}
	// Row-major copy of the minority rows, so the pair loop reads one
	// contiguous record per row.
	x := make([]float64, m*nA)
	for a, col := range st.Cols() {
		for p, r := range minIdx {
			x[p*nA+a] = col[r]
		}
	}

	tops := make([]topK, m)
	dArena := make([]float64, m*k)
	pArena := make([]int32, m*k)
	for p := range tops {
		tops[p] = topK{d: dArena[p*k : p*k : (p+1)*k], pos: pArena[p*k : p*k : (p+1)*k]}
	}
	for i := 0; i < m; i++ {
		xi := x[i*nA : (i+1)*nA]
		ti := &tops[i]
	pairs:
		for j := i + 1; j < m; j++ {
			xj := x[j*nA : (j+1)*nA]
			tj := &tops[j]
			// The pair stops once it ranks after the looser bound.
			bound := ti.bound(k)
			if bj := tj.bound(k); distAfter(bj, bound) {
				bound = bj
			}
			s := 0.0
			for a, av := range xi {
				bv := xj[a]
				switch {
				case dataset.IsMissing(av) || dataset.IsMissing(bv):
					s++
				case nominal[a]:
					if av != bv {
						s++
					}
				case flat[a]:
					continue
				default:
					diff := (av - bv) / span[a]
					s += diff * diff
				}
				if distAfter(s, bound) {
					continue pairs
				}
			}
			ti.offer(s, int32(j), k)
			tj.offer(s, int32(i), k)
		}
	}

	res := make([][]int, m)
	arena := make([]int, m*k)
	for p, t := range tops {
		nn := arena[p*k : p*k+len(t.pos)]
		for e, q := range t.pos {
			nn[e] = minIdx[q]
		}
		res[p] = nn
	}
	return res
}

// topK is one row's bounded neighbour list: distances and minority
// positions, ascending by (distance, position). Position order is row
// order, since minIdx is ascending.
type topK struct {
	d   []float64
	pos []int32
}

// bound returns the distance a candidate must not rank after to enter
// the list: its k-th entry, or NaN while the list has room (nothing
// ranks after NaN, so such a list rules no candidate out).
func (t *topK) bound(k int) float64 {
	if len(t.d) < k {
		return math.NaN()
	}
	return t.d[k-1]
}

// offer inserts candidate (d, p) if it ranks before the list's last
// entry or the list has room, keeping at most k entries.
func (t *topK) offer(d float64, p int32, k int) {
	n := len(t.d)
	if n == k {
		if !neighborBefore(d, p, t.d[n-1], t.pos[n-1]) {
			return
		}
		n--
	} else {
		t.d = t.d[:n+1]
		t.pos = t.pos[:n+1]
	}
	for n > 0 && neighborBefore(d, p, t.d[n-1], t.pos[n-1]) {
		t.d[n], t.pos[n] = t.d[n-1], t.pos[n-1]
		n--
	}
	t.d[n], t.pos[n] = d, p
}

// distAfter reports whether distance a ranks strictly after distance b,
// with NaN after every number and equal to itself.
func distAfter(a, b float64) bool {
	return a > b || (math.IsNaN(a) && !math.IsNaN(b))
}

// neighborBefore is the (distance, position) order of the neighbour
// lists: ascending distance with NaN last, ties broken by position.
func neighborBefore(da float64, pa int32, db float64, pb int32) bool {
	if distAfter(db, da) {
		return true
	}
	if distAfter(da, db) {
		return false
	}
	return pa < pb
}

// columnRanges returns per-attribute min/max over a store's non-missing
// values.
func columnRanges(st *dataset.Store) (lo, hi []float64) {
	attrs := st.Attrs()
	lo = make([]float64, len(attrs))
	hi = make([]float64, len(attrs))
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	for i, col := range st.Cols() {
		for _, v := range col {
			if dataset.IsMissing(v) {
				continue
			}
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return lo, hi
}
