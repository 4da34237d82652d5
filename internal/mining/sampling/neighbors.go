package sampling

import (
	"fmt"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// NeighborIndex caches the k-nearest-neighbour lists of a store's
// minority class so a refinement grid can evaluate many SMOTE
// configurations (different percentages and neighbour counts) against
// one training partition without recomputing the O(m²) neighbour
// search per configuration.
type NeighborIndex struct {
	st     *dataset.Store
	class  int
	minIdx []int
	lists  [][]int
	maxK   int
}

// BuildViewIndex computes up to maxK nearest minority neighbours for
// every minority row of a columnar store.
func BuildViewIndex(st *dataset.Store, minorityClass, maxK int) (*NeighborIndex, error) {
	if maxK < 1 {
		return nil, ErrBadK
	}
	minIdx, err := storeMinority(st, minorityClass)
	if err != nil {
		return nil, err
	}
	var lists [][]int
	if len(minIdx) > 1 {
		lists = nearestNeighbors(st, minIdx, maxK)
	} else {
		lists = make([][]int, 1)
	}
	return &NeighborIndex{st: st, class: minorityClass, minIdx: minIdx, lists: lists, maxK: maxK}, nil
}

// SMOTEView generates percent% synthetic minority rows from the first k
// cached neighbours of each seed, as a view of the index's store. k
// must not exceed the index's maxK.
func (ni *NeighborIndex) SMOTEView(percent float64, k int, rng *stats.RNG) (*dataset.View, error) {
	if k < 1 || k > ni.maxK {
		return nil, fmt.Errorf("%w: k=%d (index holds %d)", ErrBadK, k, ni.maxK)
	}
	trunc := make([][]int, len(ni.lists))
	for i, l := range ni.lists {
		trunc[i] = l[:min(k, len(l))]
	}
	specs, err := planSmote(len(ni.minIdx), trunc, percent, rng)
	if err != nil {
		return nil, err
	}
	return viewFromSpecs(ni.st, ni.class, ni.minIdx, specs), nil
}

// OversampleView generates percent% minority copies with replacement as
// a repeat view of the index's store (duplicate row references, no
// value copies), using the cached minority rows.
func (ni *NeighborIndex) OversampleView(percent float64, rng *stats.RNG) (*dataset.View, error) {
	specs, err := planSmote(len(ni.minIdx), nil, percent, rng)
	if err != nil {
		return nil, err
	}
	return viewFromSpecs(ni.st, ni.class, ni.minIdx, specs), nil
}
