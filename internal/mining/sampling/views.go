package sampling

// This file holds the sampling treatments as views of a columnar store
// (DESIGN.md §10): undersampling filters the store's presorted orders,
// oversampling repeats row references, and SMOTE sorts only the
// synthetic rows and merges them into the presorted base order. No
// treatment copies the store's values; View.Materialize turns any view
// into an instance-major dataset when a consumer needs one.

import (
	"fmt"
	"math"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// UndersampleView keeps keepPercent% of the majority-class rows (all
// other classes in full), the undersampling treatment whose levels
// Table IV reports as S=n(U). keepPercent must be in (0, 100]. The view
// lists every non-majority row in store order, then the kept majority
// rows in shuffled order.
func UndersampleView(st *dataset.Store, majorityClass int, keepPercent float64, rng *stats.RNG) (*dataset.View, error) {
	if majorityClass < 0 || majorityClass >= len(st.ClassValues()) {
		return nil, fmt.Errorf("sampling: class %d out of range", majorityClass)
	}
	if keepPercent <= 0 || keepPercent > 100 {
		return nil, fmt.Errorf("%w: keep %.1f%%", ErrBadPercent, keepPercent)
	}
	var majIdx []int32
	rows := make([]int32, 0, st.Len())
	for i, c := range st.Classes() {
		if c == majorityClass {
			majIdx = append(majIdx, int32(i))
		} else {
			rows = append(rows, int32(i))
		}
	}
	keep := int(math.Round(float64(len(majIdx)) * keepPercent / 100))
	if keep < 1 && len(majIdx) > 0 {
		keep = 1
	}
	rng.Shuffle(len(majIdx), func(i, j int) { majIdx[i], majIdx[j] = majIdx[j], majIdx[i] })
	return st.SelectView(append(rows, majIdx[:keep]...)), nil
}

// OversampleView adds percent% minority copies with replacement — SMOTE
// with interpolation factor q = 0 (paper §V-C) — as repeated row
// references. percent=300 adds three copies per minority row.
func OversampleView(st *dataset.Store, minorityClass int, percent float64, rng *stats.RNG) (*dataset.View, error) {
	minIdx, err := storeMinority(st, minorityClass)
	if err != nil {
		return nil, err
	}
	specs, err := planSmote(len(minIdx), nil, percent, rng)
	if err != nil {
		return nil, err
	}
	return viewFromSpecs(st, minorityClass, minIdx, specs), nil
}

// SMOTEView adds percent% synthetic minority rows, each interpolated
// from a seed row towards one of its k nearest minority neighbours:
// s = t + q*(n - t) with q uniform in (0,1). The rows are appended to
// the store through an extend view.
func SMOTEView(st *dataset.Store, minorityClass int, percent float64, k int, rng *stats.RNG) (*dataset.View, error) {
	ni, err := BuildViewIndex(st, minorityClass, k)
	if err != nil {
		return nil, err
	}
	return ni.SMOTEView(percent, k, rng)
}

// storeMinority collects the store rows of the minority class.
func storeMinority(st *dataset.Store, minorityClass int) ([]int, error) {
	if minorityClass < 0 || minorityClass >= len(st.ClassValues()) {
		return nil, fmt.Errorf("sampling: class %d out of range", minorityClass)
	}
	var minIdx []int
	for i, c := range st.Classes() {
		if c == minorityClass {
			minIdx = append(minIdx, i)
		}
	}
	if len(minIdx) == 0 {
		return nil, ErrNoMinority
	}
	return minIdx, nil
}

// viewFromSpecs realises a synthetic-instance plan against the store.
// A plan of plain copies (oversampling, or SMOTE degenerating to
// replacement when the minority has a single member) becomes a repeat
// view — duplicate row references, no value copies. A plan with
// interpolations becomes an extend view holding the m synthetic rows.
func viewFromSpecs(st *dataset.Store, minorityClass int, minIdx []int, specs []synSpec) *dataset.View {
	allCopies := true
	for _, sp := range specs {
		if sp.nn >= 0 {
			allCopies = false
			break
		}
	}
	if allCopies {
		extra := make([]int32, len(specs))
		for i, sp := range specs {
			extra[i] = int32(minIdx[sp.seedPos])
		}
		return st.RepeatView(extra)
	}

	attrs := st.Attrs()
	cols := st.Cols()
	weights := st.Weights()
	syn := make([]dataset.Synthetic, len(specs))
	valArena := make([]float64, len(specs)*len(attrs))
	for i, sp := range specs {
		seedRow := minIdx[sp.seedPos]
		vs := valArena[i*len(attrs) : (i+1)*len(attrs)]
		for a := range attrs {
			sv := cols[a][seedRow]
			vs[a] = sv
			if sp.nn < 0 {
				continue
			}
			nv := cols[a][sp.nn]
			if dataset.IsMissing(sv) || dataset.IsMissing(nv) {
				continue
			}
			if attrs[a].Type == dataset.Numeric {
				vs[a] = sv + sp.q*(nv-sv)
			} else if sp.q >= 0.5 {
				// Nominal attributes take the neighbour's value when
				// the interpolation point is closer to it.
				vs[a] = nv
			}
		}
		syn[i] = dataset.Synthetic{Values: vs, Class: minorityClass, Weight: weights[seedRow]}
	}
	return st.ExtendView(syn)
}
