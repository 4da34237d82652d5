package dataset

import "sort"

// Store is an immutable, column-major snapshot of a training partition,
// built once per cross-validation fold and shared by every refinement
// cell that trains on that fold. It holds what tree induction and the
// sampling transforms otherwise recompute per cell: per-attribute value
// columns, class and (clamped) weight arrays, the ascending row order
// of every numeric attribute, and the missingness answer.
//
// Concurrency contract: a Store is immutable after NewStore returns.
// Views hand the store's arrays to concurrent tree builders, which read
// them only; anything per-cell (scratch buffers, partitions) lives in
// the builder, never in the store.
type Store struct {
	name        string
	attrs       []Attribute
	classValues []string
	n           int
	nNumeric    int

	cols    [][]float64 // [attr][row]
	classes []int
	weights []float64 // clamped: w <= 0 stored as 1, matching induction
	sorted  [][]int32 // [attr] ascending row order; nil for nominal attrs
	// and nil everywhere when the partition has missing values (the
	// general missing-value builder re-sorts per node anyway).
	identity   []int32 // cached rows 0..n-1 for identity views
	hasMissing bool
}

// NewStore snapshots the instances of d at the given indices (all of d
// when rows is nil), in index order — the same instance order
// d.Subset(rows) would produce, so induction from the store is
// bit-identical to induction from the cloned subset.
func NewStore(d *Dataset, rows []int) *Store {
	n := len(rows)
	if rows == nil {
		n = len(d.Instances)
	}
	at := func(i int) *Instance {
		if rows == nil {
			return &d.Instances[i]
		}
		return &d.Instances[rows[i]]
	}

	s := &Store{
		name:        d.Name,
		attrs:       d.Attrs,
		classValues: d.ClassValues,
		n:           n,
		cols:        make([][]float64, len(d.Attrs)),
		classes:     make([]int, n),
		weights:     make([]float64, n),
		identity:    make([]int32, n),
	}
	colArena := make([]float64, n*len(d.Attrs))
	for a := range d.Attrs {
		col := colArena[a*n : (a+1)*n]
		for i := 0; i < n; i++ {
			v := at(i).Values[a]
			col[i] = v
			if IsMissing(v) {
				s.hasMissing = true
			}
		}
		s.cols[a] = col
		if d.Attrs[a].Type == Numeric {
			s.nNumeric++
		}
	}
	for i := 0; i < n; i++ {
		in := at(i)
		s.classes[i] = in.Class
		w := in.Weight
		if w <= 0 {
			w = 1
		}
		s.weights[i] = w
		s.identity[i] = int32(i)
	}
	if !s.hasMissing {
		s.sorted = make([][]int32, len(d.Attrs))
		sortArena := make([]int32, n*s.nNumeric)
		slab := 0
		for a := range d.Attrs {
			if d.Attrs[a].Type != Numeric {
				continue
			}
			idx := sortArena[slab : slab+n]
			slab += n
			copy(idx, s.identity)
			col := s.cols[a]
			sort.Slice(idx, func(i, j int) bool { return col[idx[i]] < col[idx[j]] })
			s.sorted[a] = idx
		}
	}
	return s
}

// Len returns the number of base rows in the store.
func (s *Store) Len() int { return s.n }

// Attrs returns the schema attributes (shared; read-only).
func (s *Store) Attrs() []Attribute { return s.attrs }

// ClassValues returns the class domain (shared; read-only).
func (s *Store) ClassValues() []string { return s.classValues }

// HasMissing reports whether any stored value is missing.
func (s *Store) HasMissing() bool { return s.hasMissing }

// Cols returns the column-major value arrays (shared; read-only).
func (s *Store) Cols() [][]float64 { return s.cols }

// Classes returns the per-row class indices (shared; read-only).
func (s *Store) Classes() []int { return s.classes }

// Weights returns the per-row clamped weights (shared; read-only).
func (s *Store) Weights() []float64 { return s.weights }

// Sorted returns the per-numeric-attribute ascending row orders, or nil
// when the store holds missing values (the general builder re-sorts per
// node anyway).
func (s *Store) Sorted() [][]int32 { return s.sorted }

// View is a training set described against a Store: the base rows it
// keeps (possibly repeated), any synthetic rows appended after them,
// and — when the store is missing-free — the pre-merged ascending row
// order of every numeric attribute, so tree induction starts without
// re-sorting anything. Views are cheap (O(rows) to build, no instance
// cloning) and immutable; all cells of a fold may read them, and the
// arrays they share with the store, concurrently.
type View struct {
	store *Store
	// rows lists the view's training rows in instance order — the order
	// the equivalent materialised dataset would hold them. Entries are
	// row ids into cols/classes/weights; ids < store.Len() are base
	// rows (and may repeat), ids >= store.Len() are synthetic.
	rows []int32
	// cols/classes/weights are the store's arrays, or extended copies
	// when synthetic rows exist.
	cols    [][]float64
	classes []int
	weights []float64
	// sorted is the per-numeric-attribute ascending order over exactly
	// the ids in rows (duplicates included); nil when the store has
	// missing values, in which case FitView falls back to the general
	// builder via Materialize.
	sorted   [][]int32
	appended int // rows beyond the base partition (duplicates + synthetic)
}

// IdentityView returns the whole-partition view (the NoSampling
// configuration): no filtering, no appended rows, the store's own
// sorted orders. O(1) — everything is shared.
func (s *Store) IdentityView() *View {
	return &View{
		store:   s,
		rows:    s.identity,
		cols:    s.cols,
		classes: s.classes,
		weights: s.weights,
		sorted:  s.sorted,
	}
}

// SelectView returns the view keeping exactly the given base rows (no
// duplicates), in the given instance order — the undersampling shape.
// Each numeric attribute's sorted order is the store's presorted order
// filtered by membership: O(n) per attribute instead of O(k log k)
// re-sorting.
func (s *Store) SelectView(rows []int32) *View {
	v := &View{
		store:   s,
		rows:    rows,
		cols:    s.cols,
		classes: s.classes,
		weights: s.weights,
	}
	if s.sorted == nil {
		return v
	}
	keep := make([]bool, s.n)
	for _, r := range rows {
		keep[r] = true
	}
	v.sorted = make([][]int32, len(s.attrs))
	arena := make([]int32, len(rows)*s.nNumeric)
	slab := 0
	for a := range s.attrs {
		if s.sorted[a] == nil {
			continue
		}
		out := arena[slab : slab+len(rows)]
		slab += len(rows)
		i := 0
		for _, r := range s.sorted[a] {
			if keep[r] {
				out[i] = r
				i++
			}
		}
		v.sorted[a] = out
	}
	return v
}

// RepeatView returns the view holding every base row plus the given
// duplicate row references appended in order — the oversampling-with-
// replacement shape. A duplicate's sorted position is already known
// (it is its base row's), so each numeric attribute's order is the
// store's presorted order with every id emitted once per occurrence:
// O(n + m), no sorting and no value copies at all.
func (s *Store) RepeatView(extra []int32) *View {
	n, m := s.n, len(extra)
	rows := make([]int32, n+m)
	copy(rows, s.identity)
	copy(rows[n:], extra)
	v := &View{
		store:    s,
		rows:     rows,
		cols:     s.cols,
		classes:  s.classes,
		weights:  s.weights,
		appended: m,
	}
	if s.sorted == nil {
		return v
	}
	times := make([]int32, n)
	for _, r := range extra {
		times[r]++
	}
	v.sorted = make([][]int32, len(s.attrs))
	arena := make([]int32, (n+m)*s.nNumeric)
	slab := 0
	for a := range s.attrs {
		if s.sorted[a] == nil {
			continue
		}
		out := arena[slab : slab+n+m]
		slab += n + m
		i := 0
		for _, r := range s.sorted[a] {
			out[i] = r
			i++
			for t := times[r]; t > 0; t-- {
				out[i] = r
				i++
			}
		}
		v.sorted[a] = out
	}
	return v
}

// ExtendView returns the view holding every base row plus m synthetic
// rows appended after them — the SMOTE shape. Columns, classes and
// weights are extended copies in flat arenas; fill writes the synthetic
// rows straight into them, with cols[a][j], classes[j] and weights[j]
// (j < m) addressing synthetic row j, so no intermediate row list is
// built. Weights <= 0 are clamped to 1 afterwards, as NewStore does.
// Each numeric attribute's order sorts only the m synthetic rows and
// merges them into the store's presorted base order in O(n + m), with
// base rows winning ties.
func (s *Store) ExtendView(m int, fill func(cols [][]float64, classes []int, weights []float64)) *View {
	n := s.n
	rows := make([]int32, n+m)
	copy(rows, s.identity)
	for j := n; j < n+m; j++ {
		rows[j] = int32(j)
	}
	v := &View{
		store:    s,
		rows:     rows,
		cols:     make([][]float64, len(s.attrs)),
		classes:  make([]int, n+m),
		weights:  make([]float64, n+m),
		appended: m,
	}
	colArena := make([]float64, (n+m)*len(s.attrs))
	synCols := make([][]float64, len(s.attrs))
	for a := range s.attrs {
		col := colArena[a*(n+m) : (a+1)*(n+m)]
		copy(col, s.cols[a])
		v.cols[a] = col
		synCols[a] = col[n:]
	}
	copy(v.classes, s.classes)
	copy(v.weights, s.weights)
	fill(synCols, v.classes[n:], v.weights[n:])
	for j := n; j < n+m; j++ {
		if v.weights[j] <= 0 {
			v.weights[j] = 1
		}
	}
	synMissing := false
	for _, col := range synCols {
		for _, val := range col {
			if IsMissing(val) {
				synMissing = true
			}
		}
	}
	// Interpolating infinite base values can produce NaN synthetics on
	// a missing-free store; those views fall back like missing data,
	// exactly as the instance path's dataset would.
	if s.sorted == nil || synMissing {
		return v
	}
	v.sorted = make([][]int32, len(s.attrs))
	arena := make([]int32, (n+m)*s.nNumeric)
	synIdx := make([]int32, m)
	slab := 0
	for a := range s.attrs {
		if s.sorted[a] == nil {
			continue
		}
		col := v.cols[a]
		for j := range synIdx {
			synIdx[j] = int32(n + j)
		}
		sort.Slice(synIdx, func(i, j int) bool { return col[synIdx[i]] < col[synIdx[j]] })
		out := arena[slab : slab+n+m]
		slab += n + m
		base := s.sorted[a]
		i, j, k := 0, 0, 0
		for i < n && j < m {
			if col[synIdx[j]] < col[base[i]] {
				out[k] = synIdx[j]
				j++
			} else {
				out[k] = base[i]
				i++
			}
			k++
		}
		for ; i < n; i++ {
			out[k] = base[i]
			k++
		}
		for ; j < m; j++ {
			out[k] = synIdx[j]
			k++
		}
		v.sorted[a] = out
	}
	return v
}

// Store returns the backing store.
func (v *View) Store() *Store { return v.store }

// Len returns the number of training rows in the view.
func (v *View) Len() int { return len(v.rows) }

// Appended returns how many rows the view holds beyond the base
// partition (duplicate references plus synthetic rows).
func (v *View) Appended() int { return v.appended }

// Attrs returns the schema attributes (shared; read-only).
func (v *View) Attrs() []Attribute { return v.store.attrs }

// ClassValues returns the class domain (shared; read-only).
func (v *View) ClassValues() []string { return v.store.classValues }

// Rows returns the view's row ids in instance order (shared; read-only).
func (v *View) Rows() []int32 { return v.rows }

// Cols returns the column-major values covering every id in Rows
// (shared; read-only).
func (v *View) Cols() [][]float64 { return v.cols }

// Classes returns per-row class indices (shared; read-only).
func (v *View) Classes() []int { return v.classes }

// Weights returns per-row clamped weights (shared; read-only).
func (v *View) Weights() []float64 { return v.weights }

// Sorted returns the per-numeric-attribute ascending row orders, or nil
// when the view cannot guarantee them (missing values in the store, or
// NaN-valued synthetics); see FitView's fallback.
func (v *View) Sorted() [][]int32 { return v.sorted }

// HasMissing reports whether fast induction must fall back to the
// general missing-value builder for this view. It is true exactly when
// Sorted is unavailable: the store holds missing values, or a synthetic
// row interpolated to NaN.
func (v *View) HasMissing() bool { return v.sorted == nil }

// Materialize builds the instance-major dataset the view describes, in
// the view's instance order. Cold path: used by the missing-value
// fallback of tree induction, by learners that cannot fit views, and by
// callers that want a sampled dataset rather than a view.
func (v *View) Materialize() *Dataset {
	out := New(v.store.name, v.store.attrs, v.store.classValues)
	out.Instances = make([]Instance, 0, len(v.rows))
	for _, r := range v.rows {
		vs := make([]float64, len(v.store.attrs))
		for a := range v.store.attrs {
			vs[a] = v.cols[a][r]
		}
		out.Instances = append(out.Instances, Instance{Values: vs, Class: v.classes[r], Weight: v.weights[r]})
	}
	return out
}
