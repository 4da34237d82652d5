package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"edem/internal/dataset"
	"edem/internal/parallel"
)

// refineDigest is the SHA-256 over the Float64bits of every evaluated
// configuration's MeanAUC, MeanTPR, MeanFPR, MeanComp and VarAUC, in
// grid order.
func refineDigest(res *RefineResult) string {
	h := sha256.New()
	var b [8]byte
	for _, e := range res.Evaluated {
		for _, v := range []float64{e.CV.MeanAUC, e.CV.MeanTPR, e.CV.MeanFPR, e.CV.MeanComp, e.CV.VarAUC} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRefineMatchesInstancePath pins Refine's results to the digests
// the instance-based refinement loop (deep-copied fold subsets,
// dataset-returning sampling transforms, FitTree) produced on the same
// data, at every worker count. Every grid shape is exercised
// (no-sampling, undersample, oversample, SMOTE at two percent/K points,
// including percent<100 planning).
func TestRefineMatchesInstancePath(t *testing.T) {
	parallel.SetBudget(8)
	defer parallel.SetBudget(0)

	grid := []SamplingConfig{
		{Kind: Undersampling, Percent: 35},
		{Kind: Undersampling, Percent: 85},
		{Kind: Oversampling, Percent: 40},
		{Kind: Oversampling, Percent: 300},
		{Kind: Smote, Percent: 60, K: 3},
		{Kind: Smote, Percent: 400, K: 5},
	}
	for _, tc := range []struct {
		seed uint64
		want string
	}{
		{3, "6c63f1aced04fed8ed51d111e793818809edc8148526b6f5994f858900943b3e"},
		{17, "c4191081d0b45064081636891fccc12346abce4942c4bba503d9ed5172acbd35"},
	} {
		d := refineDataset(250, tc.seed)
		opts := DefaultOptions()
		opts.Seed = tc.seed
		opts.Folds = 5
		for _, workers := range []int{1, 2, 8} {
			opts.Workers = workers
			got, err := Refine(context.Background(), d, grid, opts)
			if err != nil {
				t.Fatal(err)
			}
			if dg := refineDigest(got); dg != tc.want {
				t.Errorf("seed %d workers %d: digest %s, want %s", tc.seed, workers, dg, tc.want)
			}
		}
	}
}

// TestRefineMatchesInstancePathMissing covers the fallback route: a
// dataset with missing values disables the store's merge orders, so
// every cell materialises its view and lands in the general builder.
// The digest is the instance path's.
func TestRefineMatchesInstancePathMissing(t *testing.T) {
	const want = "4f1235e414edf9473bd79936f720a231031f915ec3da75988d98d3e2510bc7af"
	grid := []SamplingConfig{
		{Kind: Undersampling, Percent: 50},
		{Kind: Oversampling, Percent: 200},
		{Kind: Smote, Percent: 200, K: 3},
	}
	d := refineDataset(150, 29)
	for i := 0; i < 150; i += 11 {
		d.Instances[i].Values[1] = dataset.Missing
	}
	d.InvalidateMissing()
	opts := DefaultOptions()
	opts.Seed = 29
	opts.Folds = 5
	for _, workers := range []int{1, 8} {
		opts.Workers = workers
		got, err := Refine(context.Background(), d, grid, opts)
		if err != nil {
			t.Fatal(err)
		}
		if dg := refineDigest(got); dg != want {
			t.Errorf("workers %d: digest %s, want %s", workers, dg, want)
		}
	}
}

// TestFinalFitPredicatePins runs Steps 3-4 and the final fit with grids
// on which each treatment wins, and pins the SHA-256 of the deployed
// predicate's text to what the instance-path final fit produced. On
// each of these datasets the treatment changes the predicate, so a
// final fit that skipped or altered it would miss the pin.
func TestFinalFitPredicatePins(t *testing.T) {
	for _, tc := range []struct {
		cfg  SamplingConfig
		n    int
		seed uint64
		want string
	}{
		{SamplingConfig{Kind: Undersampling, Percent: 35}, 250, 2, "04bbc753c5ed16a5472b644a5ba2702bff76d5369d43dac01abd114862952c28"},
		{SamplingConfig{Kind: Oversampling, Percent: 500}, 150, 33, "bbc7d4a414dc00323cbb966feb9d5b28a345dd71070ca060643555276211171d"},
		{SamplingConfig{Kind: Smote, Percent: 300, K: 7}, 150, 5, "41012c6d8fb3ef4d8c53d0d349032ab83abd7892d722ad254bf7d4a217a6d8bd"},
	} {
		d := refineDataset(tc.n, tc.seed)
		opts := DefaultOptions()
		opts.Seed = tc.seed
		opts.Folds = 5
		rep, err := RunMethodologyOn(context.Background(), "refine", d, 0, []SamplingConfig{tc.cfg}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Refined.Best.Kind != tc.cfg.Kind {
			t.Fatalf("%s: best is %+v, want %s to win", tc.cfg.Label(), rep.Refined.Best, tc.cfg.Label())
		}
		text, err := rep.Predicate.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(text)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s K=%d: predicate sha256 %s, want %s", tc.cfg.Label(), tc.cfg.K, got, tc.want)
		}
	}
}
