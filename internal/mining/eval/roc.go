package eval

import (
	"errors"
	"sort"

	"edem/internal/dataset"
	"edem/internal/mining"
	"edem/internal/stats"
)

// ROCPoint is one operating point of a classifier: the (FPR, TPR)
// coordinates obtained at some score threshold (paper §IV: "each model
// is a point defined by the coordinates (1-specificity, sensitivity)").
type ROCPoint struct {
	Threshold float64
	FPR       float64
	TPR       float64
}

// ErrNoScores is returned when a ROC curve is requested without data.
var ErrNoScores = errors.New("eval: no scored instances")

// ROC computes the full ROC curve of a probabilistic classifier over a
// dataset: every distinct score becomes a threshold, and the area under
// the resulting curve is the multi-point AUC of §IV ("for different
// settings, the same algorithm will produce multiple points on the
// plot"). It returns the points from the most conservative operating
// point (0,0) to the most liberal (1,1) and the trapezoid-integrated
// area.
func ROC(model mining.Distributor, d *dataset.Dataset, positiveClass int) ([]ROCPoint, float64, error) {
	if d.Len() == 0 {
		return nil, 0, ErrNoScores
	}
	type scored struct {
		score float64
		pos   bool
		w     float64
	}
	items := make([]scored, 0, d.Len())
	var posW, negW float64
	for i := range d.Instances {
		in := &d.Instances[i]
		dist := model.Distribution(in.Values)
		s := 0.0
		if positiveClass < len(dist) {
			s = dist[positiveClass]
		}
		w := in.Weight
		if w <= 0 {
			w = 1
		}
		isPos := in.Class == positiveClass
		if isPos {
			posW += w
		} else {
			negW += w
		}
		items = append(items, scored{score: s, pos: isPos, w: w})
	}
	if posW == 0 || negW == 0 {
		return nil, 0, errors.New("eval: ROC needs both classes present")
	}
	// Descending by score: lowering the threshold admits instances in
	// this order.
	sort.Slice(items, func(i, j int) bool { return items[i].score > items[j].score })

	points := []ROCPoint{{Threshold: 1, FPR: 0, TPR: 0}}
	var tp, fp float64
	i := 0
	for i < len(items) {
		// Consume ties together: instances sharing a score share an
		// operating point.
		s := items[i].score
		for i < len(items) && items[i].score == s {
			if items[i].pos {
				tp += items[i].w
			} else {
				fp += items[i].w
			}
			i++
		}
		points = append(points, ROCPoint{Threshold: s, FPR: fp / negW, TPR: tp / posW})
	}
	// Trapezoid integration.
	auc := 0.0
	for k := 1; k < len(points); k++ {
		dx := points[k].FPR - points[k-1].FPR
		auc += dx * (points[k].TPR + points[k-1].TPR) / 2
	}
	return points, auc, nil
}

// ROCCrossValidated fits the learner on k-fold training partitions and
// pools the test-fold scores into one ROC curve, giving an unbiased
// multi-point AUC estimate for learners that expose distributions.
func ROCCrossValidated(l mining.Learner, d *dataset.Dataset, cfg CVConfig) ([]ROCPoint, float64, error) {
	if cfg.Folds == 0 {
		cfg.Folds = 10
	}
	if cfg.PositiveClass == 0 {
		cfg.PositiveClass = PositiveClass
	}
	// Collect out-of-fold scores into a synthetic dataset scored by an
	// identity distributor, then reuse ROC.
	type scoredInstance struct {
		score float64
		class int
		w     float64
	}
	var all []scoredInstance

	rng := stats.NewRNG(cfg.Seed)
	folds, err := dataset.StratifiedKFold(d, cfg.Folds, rng)
	if err != nil {
		return nil, 0, err
	}
	for _, fold := range folds {
		// Read-only training partition: learners must not mutate (see
		// the dataset ownership contract), so sharing Values is safe.
		train := d.SubsetShared(fold.Train)
		if cfg.ViewTransform != nil {
			v, err := cfg.ViewTransform(dataset.NewStore(d, fold.Train), rng.Fork())
			if err != nil {
				return nil, 0, err
			}
			train = v.Materialize()
		}
		model, err := l.Fit(train)
		if err != nil {
			return nil, 0, err
		}
		dist, ok := model.(mining.Distributor)
		if !ok {
			return nil, 0, errors.New("eval: learner does not expose class distributions")
		}
		for _, ti := range fold.Test {
			in := &d.Instances[ti]
			p := dist.Distribution(in.Values)
			s := 0.0
			if cfg.PositiveClass < len(p) {
				s = p[cfg.PositiveClass]
			}
			all = append(all, scoredInstance{score: s, class: in.Class, w: in.Weight})
		}
	}

	// Build a tiny single-attribute dataset carrying the scores and let
	// ROC do the integration through an identity distributor.
	sd := dataset.New("scores", []dataset.Attribute{dataset.NumericAttr("score")}, d.ClassValues)
	for _, s := range all {
		if err := sd.Add(dataset.Instance{Values: []float64{s.score}, Class: s.class, Weight: s.w}); err != nil {
			return nil, 0, err
		}
	}
	return ROC(identityScore{positive: cfg.PositiveClass, classes: len(d.ClassValues)}, sd, cfg.PositiveClass)
}

// identityScore treats the first attribute as P(positive).
type identityScore struct {
	positive int
	classes  int
}

func (s identityScore) Classify(values []float64) int {
	if values[0] >= 0.5 {
		return s.positive
	}
	return 1 - s.positive
}

func (s identityScore) Distribution(values []float64) []float64 {
	dist := make([]float64, s.classes)
	dist[s.positive] = values[0]
	if s.positive == 0 {
		dist[1] = 1 - values[0]
	} else {
		dist[0] = 1 - values[0]
	}
	return dist
}
