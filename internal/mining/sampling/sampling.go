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
	"sort"

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
// of its k nearest minority-class neighbours under min-max-normalised
// Euclidean distance (nominal attributes contribute 0/1 mismatch, a
// missing value on either side 1), ties broken by the lower row.
func nearestNeighbors(st *dataset.Store, minIdx []int, k int) [][]int {
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

	res := make([][]int, len(minIdx))
	type cand struct {
		idx int
		d   float64
	}
	for i, ii := range minIdx {
		cands := make([]cand, 0, len(minIdx)-1)
		for j, jj := range minIdx {
			if i == j {
				continue
			}
			cands = append(cands, cand{idx: jj, d: dist(ii, jj)})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d != cands[b].d {
				return cands[a].d < cands[b].d
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
