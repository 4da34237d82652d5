package tree

import (
	"reflect"
	"sync"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining/sampling"
	"edem/internal/stats"
)

// nodesEqual compares two trees structurally, distributions included —
// byte-identity, not just equal predictions.
func nodesEqual(a, b *Node) bool {
	if a.Attr != b.Attr || a.Threshold != b.Threshold || a.Class != b.Class {
		return false
	}
	if !reflect.DeepEqual(a.Dist, b.Dist) {
		return false
	}
	if len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !nodesEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// FitTree routes missing-free data through FitTreeView on the store's
// identity view. Both entries must still induce the tree the instance
// path built before that routing, pinned here by digest.
func TestFitTreeViewMatchesFitTree(t *testing.T) {
	const want = "ae81cf85b742b624"
	d := mixedDataset(400, 21)
	viaDataset, err := (Learner{}).FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	viaView, err := (Learner{}).FitTreeView(dataset.NewStore(d, nil).IdentityView())
	if err != nil {
		t.Fatal(err)
	}
	if got := treeDigest(viaDataset.Root); got != want {
		t.Fatalf("FitTree digest %s, want %s", got, want)
	}
	if !nodesEqual(viaDataset.Root, viaView.Root) {
		t.Fatal("FitTreeView on the identity view diverges from FitTree")
	}
}

// Every sampling view shape (select, repeat, extend) must induce the
// identical tree to FitTree on the view's materialised dataset.
func TestFitTreeViewMatchesSampledDatasets(t *testing.T) {
	d := mixedDataset(300, 22)
	// mixedDataset classes come from its own rule; relabel a slice of
	// rows to get a clear minority for the sampling transforms.
	for i := range d.Instances {
		d.Instances[i].Class = 0
	}
	for i := 0; i < 40; i++ {
		d.Instances[i*7].Class = 1
	}
	st := dataset.NewStore(d, nil)

	cases := []struct {
		name string
		view func(rng *stats.RNG) (*dataset.View, error)
	}{
		{"undersample", func(rng *stats.RNG) (*dataset.View, error) { return sampling.UndersampleView(st, 0, 35, rng) }},
		{"oversample", func(rng *stats.RNG) (*dataset.View, error) { return sampling.OversampleView(st, 1, 400, rng) }},
		{"smote", func(rng *stats.RNG) (*dataset.View, error) { return sampling.SMOTEView(st, 1, 300, 5, rng) }},
	}
	for _, tc := range cases {
		v, err := tc.view(stats.NewRNG(31))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := (Learner{}).FitTree(v.Materialize())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := (Learner{}).FitTreeView(v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !nodesEqual(want.Root, got.Root) {
			t.Fatalf("%s: view-based tree diverges from the materialised dataset's", tc.name)
		}
	}
}

// A view over a store with missing values must fall back to the general
// fractional-weight builder and still match the instance path.
func TestFitTreeViewMissingFallback(t *testing.T) {
	d := mixedDataset(200, 23)
	for i := 0; i < 200; i += 9 {
		d.Instances[i].Values[0] = dataset.Missing
	}
	d.InvalidateMissing()
	want, err := (Learner{}).FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	st := dataset.NewStore(d, nil)
	v := st.IdentityView()
	if !v.HasMissing() {
		t.Fatal("view must report missing values")
	}
	got, err := (Learner{}).FitTreeView(v)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(want.Root, got.Root) {
		t.Fatal("fallback tree diverges from instance-based tree")
	}
}

// FitTree must route missing-valued data through the general builder
// even when the cached answer was computed before the data existed —
// pinning the cache-maintenance contract of dataset.Add.
func TestFitTreeMissingFallbackAfterAdd(t *testing.T) {
	d := mixedDataset(100, 24)
	if d.HasMissing() {
		t.Fatal("unexpected missing values")
	}
	vals := make([]float64, len(d.Attrs))
	vals[0] = dataset.Missing
	vals[2] = 0
	d.MustAdd(dataset.Instance{Values: vals, Class: 0, Weight: 1})
	if !d.HasMissing() {
		t.Fatal("Add must maintain the missing cache")
	}
	general := fitGeneral(Config{}, d)
	got, err := (Learner{}).FitTree(d)
	if err != nil {
		t.Fatal(err)
	}
	if !nodesEqual(general, got.Root) {
		t.Fatal("FitTree did not use the general builder for missing data")
	}
}

func TestFitTreeViewEmpty(t *testing.T) {
	d := mixedDataset(10, 25)
	st := dataset.NewStore(d, []int{})
	if _, err := (Learner{}).FitTreeView(st.IdentityView()); err != ErrEmptyTraining {
		t.Fatalf("got %v, want ErrEmptyTraining", err)
	}
}

// Partitioning reorders the builder's own workspace in place, never the
// view's arrays: concurrent FitTreeView calls on one shared identity
// view and one shared extend view must leave Rows and Sorted
// byte-equal, and every tree must match the materialised paths. Run
// under -race this also checks that no builder writes shared memory.
func TestFitTreeViewConcurrentSharedViews(t *testing.T) {
	d := diagonalDataset(1000, 24)
	st := dataset.NewStore(d, nil)
	smote, err := sampling.SMOTEView(st, 1, 150, 5, stats.NewRNG(41))
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*dataset.View{"identity": st.IdentityView(), "extend": smote}

	type snapshot struct {
		rows   []int32
		sorted [][]int32
	}
	snap := func(v *dataset.View) snapshot {
		s := snapshot{rows: append([]int32(nil), v.Rows()...)}
		for _, o := range v.Sorted() {
			s.sorted = append(s.sorted, append([]int32(nil), o...))
		}
		return s
	}
	unpruned := Config{NoPrune: true}
	type want struct {
		pruned, raw *Node
		before      snapshot
	}
	wants := map[string]want{}
	for name, v := range views {
		if v.HasMissing() {
			t.Fatalf("%s: view lost its sort orders", name)
		}
		md := v.Materialize()
		pruned, err := (Learner{}).FitTree(md)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := (Learner{Config: unpruned}).FitTree(md)
		if err != nil {
			t.Fatal(err)
		}
		if raw.Size() < 40 {
			t.Fatalf("%s: tree of %d nodes exercises too few partitions", name, raw.Size())
		}
		wants[name] = want{pruned: pruned.Root, raw: raw.Root, before: snap(v)}
	}

	const workers = 8
	errs := make(chan string, workers*len(views)*2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for name, v := range views {
			wg.Add(1)
			go func(name string, v *dataset.View) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					got, err := (Learner{}).FitTreeView(v)
					if err != nil {
						errs <- err.Error()
						return
					}
					if !nodesEqual(got.Root, wants[name].pruned) {
						errs <- name + ": FitTreeView differs from FitTree(v.Materialize())"
						return
					}
					raw, err := (Learner{Config: unpruned}).FitTreeView(v)
					if err != nil {
						errs <- err.Error()
						return
					}
					if !nodesEqual(raw.Root, wants[name].raw) {
						errs <- name + ": unpruned FitTreeView differs from unpruned FitTree(v.Materialize())"
						return
					}
				}
			}(name, v)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for name, v := range views {
		if !reflect.DeepEqual(snap(v), wants[name].before) {
			t.Fatalf("%s: Rows or Sorted changed under concurrent induction", name)
		}
	}
}
