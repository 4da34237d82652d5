package eval

import (
	"context"
	"math"
	"reflect"
	"testing"

	"edem/internal/dataset"
	"edem/internal/mining"
	"edem/internal/mining/sampling"
	"edem/internal/mining/tree"
	"edem/internal/stats"
)

// instanceOnly strips the ViewFitter refinement off a learner, forcing
// CrossValidate down the instance-based route: SubsetShared folds, or
// the materialised view when a transform is configured.
type instanceOnly struct{ l tree.Learner }

func (w instanceOnly) Name() string                                      { return w.l.Name() }
func (w instanceOnly) Fit(d *dataset.Dataset) (mining.Classifier, error) { return w.l.Fit(d) }

func viewCVDataset(n int, seed uint64) *dataset.Dataset {
	d := dataset.New("view-cv", []dataset.Attribute{
		dataset.NumericAttr("x"),
		dataset.NumericAttr("y"),
	}, []string{"ok", "fail"})
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		x, y := rng.Float64(), rng.Float64()
		class := 0
		if x > 0.75 {
			class = 1
		}
		d.MustAdd(dataset.Instance{Values: []float64{x, y}, Class: class, Weight: 1})
	}
	return d
}

// The columnar fold path (store + identity view + FitView) must yield
// the same folds, models and metrics as the instance path.
func TestCrossValidateViewPathMatchesInstancePath(t *testing.T) {
	d := viewCVDataset(300, 41)
	cfg := CVConfig{Folds: 10, Seed: 41}
	want, err := CrossValidate(context.Background(), instanceOnly{}, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CrossValidate(context.Background(), tree.Learner{}, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("view path diverges from instance path")
	}
}

// noisyViewCVDataset flips ~5% of viewCVDataset's labels, so that the
// treatment changes the folds' trees and their AUC.
func noisyViewCVDataset(n int, seed uint64) *dataset.Dataset {
	d := viewCVDataset(n, seed)
	rng := stats.NewRNG(seed)
	for i := range d.Instances {
		if rng.Float64() < 0.05 {
			d.Instances[i].Class = 1 - d.Instances[i].Class
		}
	}
	return d
}

// The SMOTE view transform's mean AUC is pinned to the bits the
// instance path (dataset SMOTE, FitTree) produced on these folds. A
// view fitter trains on the view itself and any other learner on its
// materialisation; both must hit the pin at every worker count (same
// forked RNG streams).
func TestCrossValidateViewTransformMatchesTransform(t *testing.T) {
	const wantAUCBits = 0x3febe3d9e086c29a
	d := noisyViewCVDataset(300, 44)
	untreated, err := CrossValidate(context.Background(), tree.Learner{}, d, CVConfig{Folds: 10, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(untreated.MeanAUC) == wantAUCBits {
		t.Fatal("untreated folds hit the pin: it does not cover the transform")
	}
	vtf := func(st *dataset.Store, rng *stats.RNG) (*dataset.View, error) {
		return sampling.SMOTEView(st, 1, 250, 3, rng)
	}
	for _, l := range []mining.Learner{tree.Learner{}, instanceOnly{}} {
		for _, workers := range []int{1, 8} {
			got, err := CrossValidate(context.Background(), l, d,
				CVConfig{Folds: 10, Seed: 44, ViewTransform: vtf, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if bits := math.Float64bits(got.MeanAUC); bits != wantAUCBits {
				t.Errorf("%T workers=%d: mean AUC bits %#x, want %#x", l, workers, bits, uint64(wantAUCBits))
			}
		}
	}
}
