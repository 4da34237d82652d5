package eval

import (
	"context"
	"fmt"
	"time"

	"edem/internal/dataset"
	"edem/internal/mining"
	"edem/internal/parallel"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// ViewTransform derives a training view from a fold's columnar store
// (DESIGN.md §10) before learning — the hook through which
// class-imbalance handling (undersampling, oversampling, SMOTE) enters
// cross-validation. Transforms are applied to training folds only; test
// folds always keep the natural distribution, as in the paper's
// evaluation.
//
// Folds are evaluated concurrently, so a transform must be safe for
// concurrent calls. Each fold receives its own RNG, forked from the
// seed in fold order, so transform randomness is identical at every
// worker count.
type ViewTransform func(st *dataset.Store, rng *stats.RNG) (*dataset.View, error)

// CVConfig configures a cross-validation run.
type CVConfig struct {
	// Folds is the number of folds (the paper uses 10).
	Folds int
	// Seed drives fold assignment and any transform randomness.
	Seed uint64
	// ViewTransform, if non-nil, preprocesses each training partition.
	// A mining.ViewFitter trains on the view itself; any other learner
	// on the view's materialisation.
	ViewTransform ViewTransform
	// PositiveClass is the concept class index (default 1).
	PositiveClass int
	// Workers bounds fold parallelism for this run: 0 draws on the
	// process-wide budget (parallel.SetBudget, default all cores),
	// 1 forces serial evaluation. Results are identical either way.
	Workers int
}

// FoldResult captures one fold's confusion matrix and model complexity.
type FoldResult struct {
	Matrix *ConfusionMatrix
	Size   int
}

// CVResult aggregates a k-fold cross-validation in the form reported by
// Tables III and IV: mean FPR/TPR/AUC across folds, mean model
// complexity, and the across-fold AUC variance.
type CVResult struct {
	Folds []FoldResult

	MeanTPR  float64
	MeanFPR  float64
	MeanAUC  float64
	MeanComp float64
	VarAUC   float64
	// Pooled is the confusion matrix summed over all folds.
	Pooled *ConfusionMatrix
}

// CrossValidate runs stratified k-fold cross-validation of learner l on
// dataset d (paper §VII-C: "the data was partitioned into 10 stratified
// samples; for each cross validation run, one of the partitions was
// used as the test sample whilst the other nine were used as the
// training set"). ctx bounds the fold fan-out (cancellation stops
// claiming folds) and carries the active telemetry registry: every call
// records a "crossval" span nested under the caller's phase, one
// eval.folds_evaluated count per fold and the per-fold wall-clock
// distribution in eval.fold_ns.
func CrossValidate(ctx context.Context, l mining.Learner, d *dataset.Dataset, cfg CVConfig) (*CVResult, error) {
	ctx, span := telemetry.StartSpan(ctx, "crossval")
	defer span.End()
	if cfg.Folds == 0 {
		cfg.Folds = 10
	}
	if cfg.PositiveClass == 0 {
		cfg.PositiveClass = PositiveClass
	}
	rng := stats.NewRNG(cfg.Seed)
	folds, err := dataset.StratifiedKFold(d, cfg.Folds, rng)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}

	// Transform RNGs are forked serially in fold order before the folds
	// are dispatched, so every fold sees the exact stream it saw when
	// the loop was serial — this is what makes results independent of
	// the worker count.
	var rngs []*stats.RNG
	if cfg.ViewTransform != nil {
		rngs = make([]*stats.RNG, len(folds))
		for fi := range rngs {
			rngs[fi] = rng.Fork()
		}
	}
	viewFitter, _ := l.(mining.ViewFitter)

	// Folds are evaluated in parallel into indexed slots; all metric
	// accumulation stays serial (below) so floating-point results match
	// the serial loop bit for bit. The telemetry handles are hoisted out
	// of the loop: with telemetry disabled they are nil and each update
	// is one predictable branch.
	reg := telemetry.FromContext(ctx)
	foldsEvaluated := reg.Counter("eval.folds_evaluated")
	foldNS := reg.Histogram("eval.fold_ns")
	foldOut := make([]FoldResult, len(folds))
	err = parallel.ForEach(ctx, len(folds), cfg.Workers, func(fi int) error {
		var foldStart time.Time
		if reg != nil {
			foldStart = time.Now()
		}
		fold := folds[fi]
		var model mining.Classifier
		var err error
		switch {
		case cfg.ViewTransform != nil:
			v, terr := cfg.ViewTransform(dataset.NewStore(d, fold.Train), rngs[fi])
			if terr != nil {
				return fmt.Errorf("eval: fold %d transform: %w", fi, terr)
			}
			if viewFitter != nil {
				model, err = viewFitter.FitView(v)
			} else {
				model, err = l.Fit(v.Materialize())
			}
		case viewFitter != nil:
			model, err = viewFitter.FitView(dataset.NewStore(d, fold.Train).IdentityView())
		default:
			model, err = l.Fit(d.SubsetShared(fold.Train))
		}
		if err != nil {
			return fmt.Errorf("eval: fold %d fit: %w", fi, err)
		}
		cm := NewConfusionMatrix(d.ClassValues)
		for _, ti := range fold.Test {
			in := &d.Instances[ti]
			pred := model.Classify(in.Values)
			if err := cm.Record(in.Class, pred, in.Weight); err != nil {
				return fmt.Errorf("eval: fold %d: %w", fi, err)
			}
		}
		foldOut[fi] = FoldResult{Matrix: cm, Size: mining.ModelSize(model)}
		foldsEvaluated.Inc()
		if reg != nil {
			foldNS.ObserveDuration(time.Since(foldStart))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &CVResult{Pooled: NewConfusionMatrix(d.ClassValues)}
	var aucW, tprW, fprW, compW stats.Welford
	for _, fr := range foldOut {
		res.Folds = append(res.Folds, fr)
		if err := res.Pooled.Merge(fr.Matrix); err != nil {
			return nil, err
		}
		b := fr.Matrix.Binary(cfg.PositiveClass)
		aucW.Add(b.AUC())
		tprW.Add(b.TPR())
		fprW.Add(b.FPR())
		compW.Add(float64(fr.Size))
	}
	res.MeanAUC = aucW.Mean()
	res.MeanTPR = tprW.Mean()
	res.MeanFPR = fprW.Mean()
	res.MeanComp = compW.Mean()
	res.VarAUC = aucW.Variance()
	return res, nil
}

// Evaluate fits l on train and scores it on test, returning the
// confusion matrix — the simple holdout path used by examples.
func Evaluate(l mining.Learner, train, test *dataset.Dataset) (*ConfusionMatrix, error) {
	model, err := l.Fit(train)
	if err != nil {
		return nil, fmt.Errorf("eval: fit: %w", err)
	}
	cm := NewConfusionMatrix(test.ClassValues)
	for i := range test.Instances {
		in := &test.Instances[i]
		if err := cm.Record(in.Class, model.Classify(in.Values), in.Weight); err != nil {
			return nil, err
		}
	}
	return cm, nil
}
