package sampling

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"edem/internal/dataset"
	"edem/internal/stats"
)

func imbalancedDataset(n int, seed uint64) *dataset.Dataset {
	attrs := []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NominalAttr("mode", "a", "b"),
		dataset.NumericAttr("y"),
	}
	d := dataset.New("views-test", attrs, []string{"nonfailure", "failure"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		class := 0
		if rng.Float64() < 0.12 {
			class = 1
		}
		d.MustAdd(dataset.Instance{
			Values: []float64{rng.Float64() * 100, float64(rng.Intn(2)), rng.Float64() * 10},
			Class:  class,
			Weight: 1,
		})
	}
	return d
}

// pinView checks the SHA-256 of the ARFF bytes of the view's
// materialised training set: instance order, values and classes. The
// pins were taken from the dataset-returning transforms this package
// used to have next to the views, which the views reproduced byte for
// byte, so a pin failing means the RNG stream, the plan or the value
// interpolation drifted.
func pinView(t *testing.T, label string, v *dataset.View, want string) {
	t.Helper()
	var buf bytes.Buffer
	if err := dataset.WriteARFF(&buf, v.Materialize()); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: ARFF sha256 %s, want %s", label, got, want)
	}
}

func TestUndersampleViewMatchesDataset(t *testing.T) {
	st := dataset.NewStore(imbalancedDataset(200, 1), nil)
	for _, tc := range []struct {
		pct  float64
		want string
	}{
		{5, "c3c8308effaffe20ffd41f594eeea8881d2097176c61f76b85d0ef04178ff217"},
		{35, "e3bff4f13646e71f3dee7688c43a6720633cd1e9a99fb59dfe998f924372bb32"},
		{65, "95fb47b900a0cdb21387af0353e419013e5635d4038442b1d99d0849997b4729"},
		{100, "88d2bab5749cae3e80becfb217131d2650f7795fdb1e47b3115fd595f86689ce"},
	} {
		v, err := UndersampleView(st, 0, tc.pct, stats.NewRNG(42))
		if err != nil {
			t.Fatal(err)
		}
		pinView(t, "undersample", v, tc.want)
	}
}

func TestOversampleViewMatchesDataset(t *testing.T) {
	st := dataset.NewStore(imbalancedDataset(200, 2), nil)
	for _, tc := range []struct {
		pct  float64
		want string
	}{
		{40, "aa9d60f58edd53dc25dc091ec8160ec6158214332091b9cf845e758fb6c27bd9"},
		{100, "5d09adc4a4d33feef810df0efec28a3dde597bb0a8eb006ffdcfc625dfc11425"},
		{300, "fab19225302350010e77b818a89dd0b976fe25b8394830b68a67d97a1ed40e61"},
		{1500, "5b245193e083ed60ab2aa570ab3afd3c393f06cf00de5e19ab3cfc8792d82ed6"},
	} {
		v, err := OversampleView(st, 1, tc.pct, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		pinView(t, "oversample", v, tc.want)
	}
}

func TestSMOTEViewMatchesDataset(t *testing.T) {
	st := dataset.NewStore(imbalancedDataset(200, 3), nil)
	for _, tc := range []struct {
		pct  float64
		k    int
		want string
	}{
		{40, 1, "4127088eb46805ae7616233cf2e2553864c07641bbb9f9ed52267a15dc87519b"},
		{40, 5, "98f51de68f048c45eccbb4cad2df2eac349a5b71fd01cb6fa148c763e22be83d"},
		{100, 1, "8a6dbccb94f5769c8eb56da36eda9e0a017c187dde46652c1bd18d9ef17a4406"},
		{100, 5, "cbdc8b8ae2ee812af0938b1ac330d674ca920e8fb462479c50bf578632967f77"},
		{300, 1, "042ebd737639df1b60259c2312de223fc058c62d4e0c0277ad35679c544d2e06"},
		{300, 5, "dbda7f49e855cb5990aa7629835798903ff59c8e42d68ccd8d77c18069f307ec"},
	} {
		v, err := SMOTEView(st, 1, tc.pct, tc.k, stats.NewRNG(99))
		if err != nil {
			t.Fatal(err)
		}
		pinView(t, "smote", v, tc.want)
	}
}

// The index's views are pinned to what the instance-backed index
// generated on the same partition.
func TestViewIndexMatchesNeighborIndex(t *testing.T) {
	st := dataset.NewStore(imbalancedDataset(150, 4), nil)
	vi, err := BuildViewIndex(st, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		k    int
		want string
	}{
		{1, "bb2fdfd574115cae057f57f8b37b01b95bcbe4feaf2c9db487604e86332f67de"},
		{7, "469923802329b53813a2ec9aac6646d772684e513c45218771a882089f98c25e"},
	} {
		v, err := vi.SMOTEView(300, tc.k, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		pinView(t, "index smote", v, tc.want)
	}
	v, err := vi.OversampleView(500, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	pinView(t, "index oversample", v, "e274d5381b96e48bbd643ec43718bd2eff689ae40866362b158f558818fa4939")
}

// Rows on a coarse grid tie on distance everywhere, so the neighbour
// lists, and with them the synthetic rows, depend on the (distance,
// row) tie-break.
func TestSMOTEViewTieBreak(t *testing.T) {
	d := imbalancedDataset(200, 9)
	for i := range d.Instances {
		d.Instances[i].Values[0] = math.Floor(d.Instances[i].Values[0] / 40)
		d.Instances[i].Values[2] = math.Floor(d.Instances[i].Values[2] / 5)
	}
	v, err := SMOTEView(dataset.NewStore(d, nil), 1, 300, 3, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	pinView(t, "ties", v, "8fa88e6ea7faba45b93eade8cfc74497232472c4d75f2b1f0419db4b08ddf516")
}

// Single-member minority degenerates SMOTE to replacement copies: a
// repeat view, which keeps the merge order.
func TestSMOTEViewSingleMinority(t *testing.T) {
	d := imbalancedDataset(40, 5)
	for i := range d.Instances {
		d.Instances[i].Class = 0
	}
	d.Instances[3].Class = 1
	v, err := SMOTEView(dataset.NewStore(d, nil), 1, 300, 5, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	pinView(t, "single minority", v, "a1180fcdb0ba2825ff32705bf5548d9aa07281ba337c5dd4f41eb50ce0984608")
	if v.HasMissing() {
		t.Fatal("repeat view should keep the merge order")
	}
}

func TestViewErrorsMatchDataset(t *testing.T) {
	d := imbalancedDataset(50, 6)
	st := dataset.NewStore(d, nil)
	if _, err := UndersampleView(st, 0, 0, stats.NewRNG(1)); err == nil {
		t.Fatal("keep 0% accepted")
	}
	if _, err := UndersampleView(st, 9, 50, stats.NewRNG(1)); err == nil {
		t.Fatal("out-of-range class accepted")
	}
	if _, err := OversampleView(st, 1, -5, stats.NewRNG(1)); err == nil {
		t.Fatal("negative percent accepted")
	}
	if _, err := SMOTEView(st, 1, 100, 0, stats.NewRNG(1)); err != ErrBadK {
		t.Fatal("k=0 accepted")
	}
	onlyMaj := imbalancedDataset(30, 7)
	for i := range onlyMaj.Instances {
		onlyMaj.Instances[i].Class = 0
	}
	if _, err := OversampleView(dataset.NewStore(onlyMaj, nil), 1, 100, stats.NewRNG(1)); err != ErrNoMinority {
		t.Fatalf("empty minority: %v, want ErrNoMinority", err)
	}
}
