package tree

import (
	"testing"
	"testing/quick"

	"edem/internal/dataset"
	"edem/internal/stats"
)

// fitGeneral forces the general (weighted) builder by the same entry
// point the fast path uses, so both can be compared on identical data.
func fitGeneral(cfg Config, d *dataset.Dataset) *Node {
	b := &builder{cfg: cfg, d: d}
	items := make([]item, d.Len())
	for i := range d.Instances {
		in := &d.Instances[i]
		w := in.Weight
		if w <= 0 {
			w = 1
		}
		items[i] = item{values: in.Values, class: in.Class, w: w}
	}
	root := b.build(items, 0)
	if !cfg.NoPrune {
		prune(root, cfg.confidence())
	}
	return root
}

func treesEqual(a, b *Node) bool {
	if a.IsLeaf() != b.IsLeaf() {
		return false
	}
	if a.IsLeaf() {
		return a.Class == b.Class
	}
	if a.Attr != b.Attr || a.Threshold != b.Threshold || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !treesEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// TestFastMatchesGeneral verifies the optimisation is behaviour-
// preserving: on missing-free data the fast and general builders must
// produce identical trees.
func TestFastMatchesGeneral(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{NoPrune: true},
		{PlainGain: true},
		{MinLeaf: 5},
		{NoMDLPenalty: true},
		{MaxDepth: 3},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			d := mixedDataset(300, seed)
			fast, err := (Learner{Config: cfg}).FitTree(d)
			if err != nil {
				t.Fatal(err)
			}
			general := fitGeneral(cfg, d)
			if !treesEqual(fast.Root, general) {
				t.Errorf("cfg %+v seed %d: fast and general trees differ", cfg, seed)
			}
		}
	}
}

// mixedDataset mixes numeric and nominal attributes with an interaction
// concept and label noise.
func mixedDataset(n int, seed uint64) *dataset.Dataset {
	d := dataset.New("mixed", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
		dataset.NominalAttr("mode", "m0", "m1", "m2"),
	}, []string{"neg", "pos"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()*4
		mode := rng.Intn(3)
		class := 0
		if (mode == 2 && x > 0.3) || y > 3.5 {
			class = 1
		}
		if rng.Float64() < 0.05 {
			class = 1 - class
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, y, float64(mode)}, Class: class, Weight: 1})
	}
	return d
}

func TestFastMatchesGeneralProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%150) + 20
		d := mixedDataset(n, seed)
		fast, err := (Learner{}).FitTree(d)
		if err != nil {
			return false
		}
		return treesEqual(fast.Root, fitGeneral(Config{}, d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestHasMissing(t *testing.T) {
	d := mixedDataset(10, 1)
	if d.HasMissing() {
		t.Fatal("no missing expected")
	}
	// Direct Values mutation bypasses the cache maintenance in Add, so
	// the cached answer must be dropped explicitly.
	d.Instances[3].Values[0] = dataset.Missing
	d.InvalidateMissing()
	if !d.HasMissing() {
		t.Fatal("missing not detected")
	}
}

func BenchmarkFastInduction(b *testing.B) {
	d := mixedDataset(5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Learner{}).FitTree(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneralInduction(b *testing.B) {
	d := mixedDataset(5000, 1)
	// A single missing value routes induction through the general path.
	d.Instances[0].Values[0] = dataset.Missing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Learner{}).FitTree(d); err != nil {
			b.Fatal(err)
		}
	}
}
