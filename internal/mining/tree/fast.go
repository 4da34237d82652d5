package tree

import (
	"math"

	"edem/internal/dataset"
)

// The fast induction path applies when the training data has no missing
// values. It starts from a dataset.View, whose store sorted every
// numeric column once, and preserves that order through partitioning,
// removing the per-node sort that dominates induction cost on large
// fault-injection datasets. Datasets with missing values fall back to
// the general builder, which handles fractional instance weights.
//
// A second cost on large campaigns is allocation churn: the refinement
// grid induces thousands of trees per dataset, so per-node garbage adds
// up. The builder therefore keeps split-scan scratch (class
// distributions, candidate splits, branch counters) on the builder, and
// holds the row list and every numeric attribute's sort order in one
// per-tree workspace. A node is a range of that workspace; partitioning
// reorders the range in place with a stable pass, so children are
// sub-ranges that keep their parent's sort order and no node allocates
// index memory. A builder is used by one goroutine; fold- and
// grid-level parallelism each construct their own.

type fastBuilder struct {
	cfg      Config
	attrs    []dataset.Attribute
	cols     [][]float64 // column-major attribute values [attr][row]
	classes  []int
	weights  []float64
	nClasses int
	nNumeric int // numeric attribute count: sorted-order slabs per node

	// Root state, handed over by a dataset.View: the training rows in
	// instance order and the pre-merged per-attribute sort order, so
	// rootNode never sorts. Both are read-only: they may be shared with
	// a fold-wide store that other goroutines are reading, so rootNode
	// copies them into the workspace.
	rootRows   []int32
	rootSorted [][]int32

	// Per-tree workspace, written by rootNode and reordered in place by
	// partition: rows in instance order and, per numeric attribute, the
	// rows in ascending value order (nil for nominal attributes). A
	// fastNode is a range of both. scratch holds the rows partition
	// moves out of the way; children is a stack of child ranges, pushed
	// by partition and popped once the children are built.
	rows     []int32
	sorted   [][]int32
	scratch  []int32
	children []fastNode

	// Split-scan scratch, reused across bestSplit calls. Safe because a
	// node's best split is fully consumed (partition + node labelling)
	// before any child recursion runs the next scan.
	leftBuf   []float64
	rightBuf  []float64
	branchBuf []float64 // flat [nVals*nClasses] nominal class counts
	branchW   []float64
	splitBuf  []split  // cap len(Attrs): addresses stay stable
	candBuf   []*split // views into splitBuf for selectSplit
	countBuf  []int    // per-branch row counts
	startBuf  []int    // per-branch arena offsets
	fillBuf   []int    // per-branch fill cursors
}

// fastNode is one node's range [lo, hi) of the builder's workspace:
// fb.rows[lo:hi] are its rows in instance order and fb.sorted[a][lo:hi]
// the same rows in ascending order of numeric attribute a.
type fastNode struct {
	lo, hi int
}

// newViewBuilder wires a builder straight to a missing-free columnar
// view's arrays: no column materialisation, no weight clamp pass (the
// store clamps at build) and no root sort (the view carries merged sort
// orders).
func newViewBuilder(cfg Config, v *dataset.View) *fastBuilder {
	fb := &fastBuilder{
		cfg:        cfg,
		attrs:      v.Attrs(),
		cols:       v.Cols(),
		classes:    v.Classes(),
		weights:    v.Weights(),
		nClasses:   len(v.ClassValues()),
		rootRows:   v.Rows(),
		rootSorted: v.Sorted(),
	}
	fb.initScratch()
	return fb
}

// initScratch sizes the split-scan scratch from the schema; attrs, cols
// and nClasses must already be set.
func (fb *fastBuilder) initScratch() {
	maxBranches := 2
	for a := range fb.attrs {
		if fb.attrs[a].Type == dataset.Numeric {
			fb.nNumeric++
		} else if v := len(fb.attrs[a].Values); v > maxBranches {
			maxBranches = v
		}
	}
	fb.leftBuf = make([]float64, fb.nClasses)
	fb.rightBuf = make([]float64, fb.nClasses)
	fb.branchBuf = make([]float64, maxBranches*fb.nClasses)
	fb.branchW = make([]float64, 0, maxBranches)
	fb.splitBuf = make([]split, 0, len(fb.attrs))
	fb.candBuf = make([]*split, 0, len(fb.attrs))
	fb.countBuf = make([]int, maxBranches)
	fb.startBuf = make([]int, maxBranches)
	fb.fillBuf = make([]int, maxBranches)
}

// rootNode fills the workspace from the root state — one arena for the
// row list and every numeric attribute's order, plus the partition
// scratch — and returns the whole range.
func (fb *fastBuilder) rootNode() fastNode {
	n := len(fb.rootRows)
	arena := make([]int32, n*(2+fb.nNumeric))
	fb.rows = arena[:n:n]
	fb.scratch = arena[n : 2*n : 2*n]
	copy(fb.rows, fb.rootRows)
	fb.sorted = make([][]int32, len(fb.attrs))
	slab := 2 * n
	for a := range fb.attrs {
		if fb.attrs[a].Type != dataset.Numeric {
			continue
		}
		idx := arena[slab : slab+n : slab+n]
		slab += n
		copy(idx, fb.rootSorted[a])
		fb.sorted[a] = idx
	}
	return fastNode{lo: 0, hi: n}
}

// distribution allocates a fresh class distribution — the result escapes
// into Node.Dist, so it cannot come from scratch.
func (fb *fastBuilder) distribution(rows []int32) []float64 {
	dist := make([]float64, fb.nClasses)
	for _, r := range rows {
		dist[fb.classes[r]] += fb.weights[r]
	}
	return dist
}

func (fb *fastBuilder) build(nd fastNode, depthSoFar int) *Node {
	dist := fb.distribution(fb.rows[nd.lo:nd.hi])
	node := &Node{Attr: -1, Dist: dist, Class: argmax(dist)}

	totalW := sum(dist)
	if totalW < 2*fb.cfg.minLeaf() || isPure(dist) {
		return node
	}
	if fb.cfg.MaxDepth > 0 && depthSoFar >= fb.cfg.MaxDepth {
		return node
	}

	best := fb.bestSplit(nd, dist, totalW)
	if best == nil {
		return node
	}

	// The children's ranges sit on the stack at [base, base+nb); the
	// recursion below may grow (and move) the stack, so they are read
	// by index and popped once built.
	base := fb.partition(nd, best)
	nb := len(fb.children) - base
	strong := 0
	for _, c := range fb.children[base:] {
		if fb.weightOfRows(fb.rows[c.lo:c.hi]) >= fb.cfg.minLeaf() {
			strong++
		}
	}
	if strong >= 2 {
		node.Attr = best.attr
		node.Threshold = best.threshold
		node.Children = make([]*Node, nb)
		for i := range node.Children {
			c := fb.children[base+i]
			if c.lo == c.hi {
				node.Children[i] = &Node{Attr: -1, Dist: make([]float64, fb.nClasses), Class: node.Class}
				continue
			}
			node.Children[i] = fb.build(c, depthSoFar+1)
		}
	}
	fb.children = fb.children[:base]
	return node
}

func (fb *fastBuilder) weightOfRows(rows []int32) float64 {
	w := 0.0
	for _, r := range rows {
		w += fb.weights[r]
	}
	return w
}

// bestSplit scans every attribute, collecting candidates into the
// builder's split scratch. The returned pointer aims into splitBuf and
// is only valid until the next bestSplit call.
func (fb *fastBuilder) bestSplit(nd fastNode, dist []float64, totalW float64) *split {
	fb.splitBuf = fb.splitBuf[:0]
	fb.candBuf = fb.candBuf[:0]
	for a := range fb.attrs {
		var s split
		var ok bool
		if fb.attrs[a].Type == dataset.Numeric {
			ok = fb.numericSplit(fb.sorted[a][nd.lo:nd.hi], a, dist, totalW, &s)
		} else {
			ok = fb.nominalSplit(fb.rows[nd.lo:nd.hi], a, dist, totalW, &s)
		}
		if ok && s.gain > 1e-12 {
			fb.splitBuf = append(fb.splitBuf, s)
			fb.candBuf = append(fb.candBuf, &fb.splitBuf[len(fb.splitBuf)-1])
		}
	}
	return selectSplit(fb.candBuf, fb.cfg.PlainGain)
}

// numericSplit scans the pre-sorted rows of a numeric attribute, writing
// the winning split into out. It reports whether a split was found.
func (fb *fastBuilder) numericSplit(sorted []int32, attr int, dist []float64, totalW float64, out *split) bool {
	if len(sorted) < 2 {
		return false
	}
	col := fb.cols[attr]
	baseEntropy := entropy(dist)

	left, right := fb.leftBuf, fb.rightBuf
	for i := range left {
		left[i] = 0
	}
	copy(right, dist)

	var (
		bestGain   = -1.0
		bestThresh float64
		bestLeftW  float64
		distinct   = 1
		leftW      = 0.0
	)
	// Each value is loaded once: the row moving left and its value
	// carry over from the previous step's look-ahead.
	weights, classes := fb.weights, fb.classes
	minLeaf := fb.cfg.minLeaf()
	r := sorted[0]
	v := col[r]
	for _, next := range sorted[1:] {
		w := weights[r]
		c := classes[r]
		left[c] += w
		right[c] -= w
		leftW += w
		thresh := v
		r, v = next, col[next]
		if thresh == v {
			continue
		}
		distinct++
		if leftW < minLeaf || totalW-leftW < minLeaf {
			continue
		}
		childEntropy := (leftW*entropy(left) + (totalW-leftW)*entropy(right)) / totalW
		gain := baseEntropy - childEntropy
		if gain > bestGain {
			bestGain = gain
			bestThresh = thresh
			bestLeftW = leftW
		}
	}
	if bestGain < 0 {
		return false
	}
	gain := bestGain
	if !fb.cfg.NoMDLPenalty && distinct > 1 {
		gain -= math.Log2(float64(distinct-1)) / totalW
	}
	if gain <= 0 {
		return false
	}
	si := splitInfo([]float64{bestLeftW, totalW - bestLeftW}, totalW)
	gr := gain
	if si > 1e-12 {
		gr = gain / si
	}
	*out = split{attr: attr, threshold: bestThresh, gain: gain, gainRatio: gr}
	return true
}

// nominalSplit evaluates a multi-way nominal split into out, counting
// branch distributions in the builder's flat scratch.
func (fb *fastBuilder) nominalSplit(rows []int32, attr int, dist []float64, totalW float64, out *split) bool {
	nVals := len(fb.attrs[attr].Values)
	if nVals < 2 {
		return false
	}
	flat := fb.branchBuf[:nVals*fb.nClasses]
	for i := range flat {
		flat[i] = 0
	}
	col := fb.cols[attr]
	for _, r := range rows {
		flat[int(col[r])*fb.nClasses+fb.classes[r]] += fb.weights[r]
	}
	nonEmpty := 0
	childEntropy := 0.0
	branchW := fb.branchW[:0]
	for b := 0; b < nVals; b++ {
		bd := flat[b*fb.nClasses : (b+1)*fb.nClasses]
		w := sum(bd)
		branchW = append(branchW, w)
		if w > 0 {
			nonEmpty++
			childEntropy += w * entropy(bd)
		}
	}
	if nonEmpty < 2 {
		return false
	}
	childEntropy /= totalW
	gain := entropy(dist) - childEntropy
	if gain <= 0 {
		return false
	}
	si := splitInfo(branchW, totalW)
	gr := gain
	if si > 1e-12 {
		gr = gain / si
	}
	*out = split{attr: attr, gain: gain, gainRatio: gr}
	return true
}

// partition splits the node's range in place, preserving every
// attribute's sort order: the row list and each numeric attribute's
// order are stably reordered so that branch b occupies the same
// sub-range in all of them. It pushes the children's ranges onto
// fb.children and returns the index of the first. No allocation beyond
// the occasional growth of that stack.
func (fb *fastBuilder) partition(nd fastNode, s *split) int {
	col := fb.cols[s.attr]
	base := len(fb.children)
	if fb.attrs[s.attr].Type == dataset.Numeric {
		mid := nd.lo + fb.splitTwoWay(fb.rows[nd.lo:nd.hi], col, s.threshold)
		for _, order := range fb.sorted {
			if order != nil {
				fb.splitTwoWay(order[nd.lo:nd.hi], col, s.threshold)
			}
		}
		fb.children = append(fb.children, fastNode{lo: nd.lo, hi: mid}, fastNode{lo: mid, hi: nd.hi})
		return base
	}

	// Nominal: count branch sizes first, then fill each branch's range.
	counts := fb.countBuf[:len(fb.attrs[s.attr].Values)]
	for b := range counts {
		counts[b] = 0
	}
	for _, r := range fb.rows[nd.lo:nd.hi] {
		counts[int(col[r])]++
	}
	starts := fb.startBuf[:len(counts)]
	off := 0
	for b := range counts {
		starts[b] = off
		fb.children = append(fb.children, fastNode{lo: nd.lo + off, hi: nd.lo + off + counts[b]})
		off += counts[b]
	}
	fb.stablePartition(fb.rows[nd.lo:nd.hi], col, starts)
	for _, order := range fb.sorted {
		if order != nil {
			fb.stablePartition(order[nd.lo:nd.hi], col, starts)
		}
	}
	return base
}

// splitTwoWay stably moves the rows of seg whose value is at most
// threshold to its front, the rest behind them, and returns how many
// went left; NaN values go right, as in Classify. Every row is written
// to both cursors — the left one in seg, which never passes the read
// position, and the right one in scratch — and only its own side's
// cursor advances, so the loop has no data-dependent branch to
// mispredict.
func (fb *fastBuilder) splitTwoWay(seg []int32, col []float64, threshold float64) int {
	tail := fb.scratch[:len(seg)]
	nl, nr := 0, 0
	for _, r := range seg {
		right := 0
		if !(col[r] <= threshold) {
			right = 1
		}
		seg[nl] = r
		tail[nr] = r
		nl += 1 - right
		nr += right
	}
	copy(seg[nl:], tail[:nr])
	return nl
}

// stablePartition reorders seg so that nominal branch b's rows fill
// seg[starts[b]:starts[b+1]] in their original relative order. Branch 0
// is compacted in place — its write cursor never passes the read
// cursor — and the other branches are filled into scratch and copied
// back behind it.
func (fb *fastBuilder) stablePartition(seg []int32, col []float64, starts []int) {
	fill := fb.fillBuf[:len(starts)]
	copy(fill, starts)
	head := starts[1]
	tail := fb.scratch[:len(seg)-head]
	for _, r := range seg {
		b := int(col[r])
		if b == 0 {
			seg[fill[0]] = r
			fill[0]++
			continue
		}
		tail[fill[b]-head] = r
		fill[b]++
	}
	copy(seg[head:], tail)
}

// selectSplit applies C4.5's rule: among candidates whose gain is at
// least the average gain, pick the best gain ratio (or plain gain).
func selectSplit(candidates []*split, plainGain bool) *split {
	if len(candidates) == 0 {
		return nil
	}
	avgGain := 0.0
	for _, s := range candidates {
		avgGain += s.gain
	}
	avgGain /= float64(len(candidates))

	var best *split
	for _, s := range candidates {
		if s.gain+1e-12 < avgGain {
			continue
		}
		score := s.gainRatio
		if plainGain {
			score = s.gain
		}
		if best == nil {
			best = s
			continue
		}
		bestScore := best.gainRatio
		if plainGain {
			bestScore = best.gain
		}
		if score > bestScore || (score == bestScore && s.attr < best.attr) {
			best = s
		}
	}
	return best
}
