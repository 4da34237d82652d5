package tree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining/costs"
	"edem/internal/stats"
)

// treeDigest hashes a tree's full structure — attributes, threshold and
// distribution bits, classes and child counts — so two trees share a
// digest only when they are bit-identical.
func treeDigest(n *Node) string {
	h := sha256.New()
	hashNode(h, n)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashNode(h hash.Hash, n *Node) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(int64(n.Attr)))
	put(math.Float64bits(n.Threshold))
	put(uint64(int64(n.Class)))
	put(uint64(len(n.Dist)))
	for _, x := range n.Dist {
		put(math.Float64bits(x))
	}
	put(uint64(len(n.Children)))
	for _, c := range n.Children {
		hashNode(h, c)
	}
}

// costWeighted reweights mixedDataset with Ting's cost weights for a
// false-negative penalty of 7, so every weight is fractional.
func costWeighted(t *testing.T, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	vec, err := costs.FalseNegativePenalty(7).Vector(costs.SumReduction)
	if err != nil {
		t.Fatal(err)
	}
	d, err := costs.Reweight(mixedDataset(n, seed), vec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// diagonalDataset relabels mixedDataset with a diagonal class boundary
// over x and y, flipped in one nominal mode. Axis-parallel splits can
// only approximate it, so the tree grows deep and partition runs at
// many depths and on both attribute kinds.
func diagonalDataset(n int, seed uint64) *dataset.Dataset {
	d := mixedDataset(n, seed)
	for i := range d.Instances {
		vs := d.Instances[i].Values
		class := 0
		if vs[1]/4 > vs[0] {
			class = 1
		}
		if vs[2] == 2 {
			class = 1 - class
		}
		d.Instances[i].Class = class
	}
	return d
}

// randomWeighted gives every row of diagonalDataset its own fractional
// weight, so class sums at a split point depend on the order the scan
// adds them in.
func randomWeighted(n int, seed uint64) *dataset.Dataset {
	d := diagonalDataset(n, seed)
	rng := stats.NewRNG(seed + 100)
	for i := range d.Instances {
		d.Instances[i].Weight = 0.05 + 3*rng.Float64()
	}
	return d
}

// TestTreePins fixes the trees the fast builder induces, distributions
// included, against digests taken before FitTree was routed through the
// columnar store. The weighted cases pin the split scan's summation
// order for weights other than 1.
func TestTreePins(t *testing.T) {
	cases := []struct {
		name string
		d    *dataset.Dataset
		cfg  Config
		want string
	}{
		{"mixed/1/default", mixedDataset(300, 1), Config{}, "ffdd9b88d4053c77"},
		{"mixed/2/noprune", mixedDataset(300, 2), Config{NoPrune: true}, "1d88ddd07666e750"},
		{"mixed/3/plaingain", mixedDataset(300, 3), Config{PlainGain: true}, "0f7746bc20f01325"},
		{"mixed/4/minleaf5", mixedDataset(300, 4), Config{MinLeaf: 5}, "0044a674f1419c1a"},
		{"mixed/1/nomdl", mixedDataset(300, 1), Config{NoMDLPenalty: true}, "f354a478bd4b88d9"},
		{"diagonal/24/maxdepth3", diagonalDataset(1000, 24), Config{MaxDepth: 3}, "f7ed8f57a0008d95"},
		{"costs/21/default", costWeighted(t, 400, 21), Config{}, "e70eb4daef420beb"},
		{"costs/21/noprune", costWeighted(t, 400, 21), Config{NoPrune: true}, "4711e1ce68e74a83"},
		{"diagonal/24/noprune", diagonalDataset(1000, 24), Config{NoPrune: true}, "fa89924dab26d0b2"},
		{"random/5/default", randomWeighted(1000, 5), Config{}, "d0c7e1cdeb4832ed"},
		{"random/5/noprune", randomWeighted(1000, 5), Config{NoPrune: true}, "cefba105c47cec6b"},
	}
	for _, tc := range cases {
		tr, err := (Learner{Config: tc.cfg}).FitTree(tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := treeDigest(tr.Root); got != tc.want {
			t.Errorf("%s: tree digest %s, want %s (size %d)", tc.name, got, tc.want, tr.Size())
		}
	}
}
