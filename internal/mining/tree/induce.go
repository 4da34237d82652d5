package tree

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"edem/internal/dataset"
	"edem/internal/mining"
)

// Config controls C4.5 induction. The zero value selects the standard
// C4.5 defaults used throughout the paper (CF=0.25, min leaf weight 2,
// gain ratio, pruning on).
type Config struct {
	// MinLeaf is the minimum total instance weight required in at least
	// two branches of a split (C4.5's -m). Default 2.
	MinLeaf float64
	// ConfidenceFactor is the pruning confidence (C4.5's -c). Default
	// 0.25; values >= 0.5 disable the statistical correction.
	ConfidenceFactor float64
	// NoPrune disables pessimistic error pruning.
	NoPrune bool
	// PlainGain uses raw information gain instead of gain ratio for
	// split selection (for the ablation benchmarks).
	PlainGain bool
	// NoMDLPenalty disables the log2(distinct-1)/|D| correction applied
	// to continuous-attribute gains.
	NoMDLPenalty bool
	// MaxDepth caps tree depth; 0 means unlimited.
	MaxDepth int
}

func (c Config) minLeaf() float64 {
	if c.MinLeaf <= 0 {
		return 2
	}
	return c.MinLeaf
}

func (c Config) confidence() float64 {
	if c.ConfidenceFactor <= 0 {
		return 0.25
	}
	return c.ConfidenceFactor
}

// Learner induces C4.5 decision trees.
type Learner struct {
	Config Config
}

var _ mining.Learner = Learner{}

// Name implements mining.Learner.
func (Learner) Name() string { return "C4.5" }

// Fit implements mining.Learner.
func (l Learner) Fit(d *dataset.Dataset) (mining.Classifier, error) {
	t, err := l.FitTree(d)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ErrEmptyTraining is returned when the training set has no instances.
var ErrEmptyTraining = errors.New("tree: empty training set")

// FitTree induces a tree and returns it with its concrete type, for
// callers that need predicate extraction or rendering.
func (l Learner) FitTree(d *dataset.Dataset) (*Tree, error) {
	if d.Len() == 0 {
		return nil, ErrEmptyTraining
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("tree: %w", err)
	}
	if !d.HasMissing() {
		// Fast path: the columnar store sorts every numeric column once
		// and partitioning preserves that order.
		return l.FitTreeView(dataset.NewStore(d, nil).IdentityView())
	}
	// General path: fractional instance weights across branches.
	b := &builder{cfg: l.Config, d: d}
	items := make([]item, d.Len())
	for i := range d.Instances {
		in := &d.Instances[i]
		w := in.Weight
		if w <= 0 {
			w = 1
		}
		items[i] = item{values: in.Values, class: in.Class, w: w}
	}
	t := &Tree{Root: b.build(items, 0), Attrs: d.Attrs, ClassValues: d.ClassValues}
	if !l.Config.NoPrune {
		prune(t.Root, l.Config.confidence())
	}
	return t, nil
}

// FitView implements mining.ViewFitter: induction straight from a
// columnar training view, skipping instance materialisation.
func (l Learner) FitView(v *dataset.View) (mining.Classifier, error) {
	t, err := l.FitTreeView(v)
	if err != nil {
		return nil, err
	}
	return t, nil
}

var _ mining.ViewFitter = Learner{}

// FitTreeView induces a tree from a columnar dataset.View; it is the
// only entry into the fast builder. When the view carries pre-merged
// sort orders the builder starts directly on the shared arrays — no
// missing-value rescan, no column build, no root sort. A view without
// sort orders (missing values in the store, or NaN-valued synthetics)
// is materialised and routed through FitTree, which lands in the
// general fractional-weight builder exactly as the instance-based path
// would. The view's arrays are only read, so one view may feed many
// concurrent FitTreeView calls.
func (l Learner) FitTreeView(v *dataset.View) (*Tree, error) {
	if v.Len() == 0 {
		return nil, ErrEmptyTraining
	}
	if v.HasMissing() {
		return l.FitTree(v.Materialize())
	}
	fb := newViewBuilder(l.Config, v)
	root := fb.build(fb.rootNode(), 0)
	t := &Tree{Root: root, Attrs: v.Attrs(), ClassValues: v.ClassValues()}
	if !l.Config.NoPrune {
		prune(t.Root, l.Config.confidence())
	}
	return t, nil
}

// item is one (possibly fractional) training case at a node.
type item struct {
	values []float64
	class  int
	w      float64
}

type builder struct {
	cfg Config
	d   *dataset.Dataset
}

// build grows the subtree for the given cases.
func (b *builder) build(items []item, depthSoFar int) *Node {
	dist := b.distribution(items)
	node := &Node{Attr: -1, Dist: dist, Class: argmax(dist)}

	totalW := sum(dist)
	if totalW < 2*b.cfg.minLeaf() || isPure(dist) {
		return node
	}
	if b.cfg.MaxDepth > 0 && depthSoFar >= b.cfg.MaxDepth {
		return node
	}

	split := b.bestSplit(items, dist)
	if split == nil {
		return node
	}

	groups := b.partition(items, split)
	// Require at least two branches holding MinLeaf weight, as C4.5 does.
	strong := 0
	for _, g := range groups {
		if weightOf(g) >= b.cfg.minLeaf() {
			strong++
		}
	}
	if strong < 2 {
		return node
	}

	node.Attr = split.attr
	node.Threshold = split.threshold
	node.Children = make([]*Node, len(groups))
	for i, g := range groups {
		if len(g) == 0 {
			// Empty branch becomes a leaf predicting the parent majority.
			node.Children[i] = &Node{Attr: -1, Dist: make([]float64, len(dist)), Class: node.Class}
			continue
		}
		node.Children[i] = b.build(g, depthSoFar+1)
	}
	return node
}

func (b *builder) distribution(items []item) []float64 {
	dist := make([]float64, len(b.d.ClassValues))
	for i := range items {
		dist[items[i].class] += items[i].w
	}
	return dist
}

// split describes a candidate test.
type split struct {
	attr      int
	threshold float64 // numeric only
	gain      float64
	gainRatio float64
}

// bestSplit evaluates every attribute and applies C4.5's selection rule:
// among attributes whose information gain is at least the average of all
// positive gains, pick the best gain ratio (or plain gain when
// configured).
func (b *builder) bestSplit(items []item, dist []float64) *split {
	totalW := sum(dist)

	candidates := make([]*split, 0, len(b.d.Attrs))
	for a := range b.d.Attrs {
		var s *split
		if b.d.Attrs[a].Type == dataset.Numeric {
			s = b.numericSplit(items, a, totalW)
		} else {
			s = b.nominalSplit(items, a, totalW)
		}
		if s != nil && s.gain > 1e-12 {
			candidates = append(candidates, s)
		}
	}
	return selectSplit(candidates, b.cfg.PlainGain)
}

// numericSplit finds the best binary threshold for a numeric attribute.
func (b *builder) numericSplit(items []item, attr int, totalW float64) *split {
	type vw struct {
		v     float64
		w     float64
		class int
	}
	known := make([]vw, 0, len(items))
	missingW := 0.0
	for i := range items {
		v := items[i].values[attr]
		if dataset.IsMissing(v) {
			missingW += items[i].w
			continue
		}
		known = append(known, vw{v: v, w: items[i].w, class: items[i].class})
	}
	if len(known) < 2 {
		return nil
	}
	sort.Slice(known, func(i, j int) bool { return known[i].v < known[j].v })

	knownW := totalW - missingW
	if knownW <= 0 {
		return nil
	}
	nClasses := len(b.d.ClassValues)
	left := make([]float64, nClasses)
	right := make([]float64, nClasses)
	for _, k := range known {
		right[k.class] += k.w
	}
	knownDist := make([]float64, nClasses)
	copy(knownDist, right)
	knownEntropy := entropy(knownDist)

	var (
		bestGain   = math.Inf(-1)
		bestThresh float64
		bestLeftW  float64
		distinct   = 1
		leftW      = 0.0
	)
	for i := 0; i < len(known)-1; i++ {
		left[known[i].class] += known[i].w
		right[known[i].class] -= known[i].w
		leftW += known[i].w
		if known[i].v == known[i+1].v {
			continue
		}
		distinct++
		if leftW < b.cfg.minLeaf() || knownW-leftW < b.cfg.minLeaf() {
			continue
		}
		childEntropy := (leftW*entropy(left) + (knownW-leftW)*entropy(right)) / knownW
		gain := knownEntropy - childEntropy
		if gain > bestGain {
			bestGain = gain
			// C4.5 style: threshold at the largest observed value below
			// the boundary keeps the test expressible in data values.
			bestThresh = known[i].v
			bestLeftW = leftW
		}
	}
	if math.IsInf(bestGain, -1) {
		return nil
	}

	// Discount for unknown values, then the MDL correction for having
	// chosen among distinct-1 candidate thresholds.
	gain := (knownW / totalW) * bestGain
	if !b.cfg.NoMDLPenalty && distinct > 1 {
		gain -= math.Log2(float64(distinct-1)) / totalW
	}
	if gain <= 0 {
		return nil
	}

	si := splitInfo([]float64{bestLeftW, knownW - bestLeftW, missingW}, totalW)
	gr := gain
	if si > 1e-12 {
		gr = gain / si
	}
	return &split{attr: attr, threshold: bestThresh, gain: gain, gainRatio: gr}
}

// nominalSplit evaluates the multiway split on a nominal attribute.
func (b *builder) nominalSplit(items []item, attr int, totalW float64) *split {
	nVals := len(b.d.Attrs[attr].Values)
	if nVals < 2 {
		return nil
	}
	nClasses := len(b.d.ClassValues)
	branch := make([][]float64, nVals)
	for i := range branch {
		branch[i] = make([]float64, nClasses)
	}
	known := make([]float64, nClasses)
	missingW := 0.0
	for i := range items {
		v := items[i].values[attr]
		if dataset.IsMissing(v) {
			missingW += items[i].w
			continue
		}
		idx := int(v)
		branch[idx][items[i].class] += items[i].w
		known[items[i].class] += items[i].w
	}
	knownW := sum(known)
	if knownW <= 0 {
		return nil
	}
	nonEmpty := 0
	childEntropy := 0.0
	branchW := make([]float64, 0, nVals+1)
	for _, dist := range branch {
		w := sum(dist)
		branchW = append(branchW, w)
		if w > 0 {
			nonEmpty++
			childEntropy += w * entropy(dist)
		}
	}
	if nonEmpty < 2 {
		return nil
	}
	childEntropy /= knownW
	gain := (knownW / totalW) * (entropy(known) - childEntropy)
	if gain <= 0 {
		return nil
	}
	branchW = append(branchW, missingW)
	si := splitInfo(branchW, totalW)
	gr := gain
	if si > 1e-12 {
		gr = gain / si
	}
	return &split{attr: attr, gain: gain, gainRatio: gr}
}

// partition distributes cases into the split's branches, spreading
// missing-valued cases fractionally in proportion to branch weight
// (C4.5's probabilistic missing-value handling).
func (b *builder) partition(items []item, s *split) [][]item {
	numeric := b.d.Attrs[s.attr].Type == dataset.Numeric
	nBranches := 2
	if !numeric {
		nBranches = len(b.d.Attrs[s.attr].Values)
	}
	groups := make([][]item, nBranches)
	var missing []item
	branchW := make([]float64, nBranches)
	for i := range items {
		v := items[i].values[s.attr]
		if dataset.IsMissing(v) {
			missing = append(missing, items[i])
			continue
		}
		var g int
		if numeric {
			if v <= s.threshold {
				g = 0
			} else {
				g = 1
			}
		} else {
			g = int(v)
		}
		groups[g] = append(groups[g], items[i])
		branchW[g] += items[i].w
	}
	knownW := sum(branchW)
	if len(missing) > 0 && knownW > 0 {
		for _, m := range missing {
			for g := range groups {
				if branchW[g] <= 0 {
					continue
				}
				frac := branchW[g] / knownW
				groups[g] = append(groups[g], item{values: m.values, class: m.class, w: m.w * frac})
			}
		}
	}
	return groups
}

// splitInfo is the entropy of the branch weight distribution, the
// denominator of gain ratio.
func splitInfo(branchW []float64, totalW float64) float64 {
	if totalW <= 0 {
		return 0
	}
	si := 0.0
	for _, w := range branchW {
		if w > 0 {
			p := w / totalW
			si -= p * math.Log2(p)
		}
	}
	return si
}

func weightOf(items []item) float64 {
	w := 0.0
	for i := range items {
		w += items[i].w
	}
	return w
}

func isPure(dist []float64) bool {
	seen := false
	for _, w := range dist {
		if w > 0 {
			if seen {
				return false
			}
			seen = true
		}
	}
	return true
}

func argmax(dist []float64) int {
	best := 0
	for c := 1; c < len(dist); c++ {
		if dist[c] > dist[best] {
			best = c
		}
	}
	return best
}
