package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"edem/internal/dataset"
	"edem/internal/mining/eval"
	"edem/internal/mining/sampling"
	"edem/internal/parallel"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// Refine runs Step 4: every grid configuration is cross-validated on
// the SAME stratified folds as the baseline and the configuration with
// the best mean AUC is selected (ties: fewer mean nodes). The baseline
// configuration competes too, so refinement never reports a worse model
// than Step 3.
//
// The unit of scheduling is one (configuration, fold) cell, so
// parallelism scales to configurations × folds workers rather than
// stopping at the fold count. Results are bit-identical for any worker
// count: each cell derives its RNG from (seed, fold, config) alone, and
// the per-fold shared artifacts (training partition, SMOTE neighbour
// index) are built once and only read afterwards. When the grid holds
// SMOTE points, each fold's index is built by a task of its own, claimed
// ahead of the fold's cells (see claimOrder), so cells rarely wait for
// it. A fold's artifacts are dropped as soon as its last task finishes,
// so at most the folds with tasks in flight hold memory.
func Refine(ctx context.Context, d *dataset.Dataset, grid []SamplingConfig, opts Options) (*RefineResult, error) {
	ctx, span := telemetry.StartSpan(ctx, "refine")
	defer span.End()
	full := append([]SamplingConfig{{Kind: NoSampling}}, grid...)

	// Folds must match Baseline: same RNG construction as
	// eval.CrossValidate with the same seed.
	rng := stats.NewRNG(opts.Seed)
	folds, err := dataset.StratifiedKFold(d, opts.folds(), rng)
	if err != nil {
		return nil, fmt.Errorf("core: refine folds: %w", err)
	}

	maxK := 0
	for _, cfg := range full {
		if cfg.Kind == Smote && cfg.K > maxK {
			maxK = cfg.K
		}
	}

	nCfg := len(full)
	cells := make([]refineCell, nCfg*len(folds))
	tasks := claimOrder(len(folds), nCfg, maxK > 0)
	shared := make([]foldShared, len(folds))
	for fi := range shared {
		// Every task of the fold counts, the index task included, so the
		// fold is not released while its index is still being built.
		shared[fi].cellsLeft.Store(int64(len(tasks) / len(folds)))
	}

	reg := telemetry.FromContext(ctx)
	reg.Counter("refine.grid_configs").Add(int64(nCfg))
	cellsScored := reg.Counter("refine.cells_scored")
	cellNS := reg.Histogram("refine.cell_ns")
	prefetches := reg.Counter("refine.index_prefetches")
	ctrs := refineCounters{
		storeBuilds: reg.Counter("refine.store_builds"),
		viewHits:    reg.Counter("refine.view_hits"),
		mergeSyn:    reg.Counter("refine.merge_synthetic_rows"),
		indexWait:   reg.Histogram("refine.index_wait_ns"),
	}
	foldsReleased := reg.Counter("refine.folds_released")

	err = parallel.ForEach(ctx, len(tasks), opts.Workers, func(i int) error {
		fi, ci := tasks[i].fold, tasks[i].cfg
		sh := &shared[fi]
		if ci == indexTask {
			_, span := telemetry.StartSpan(ctx, "index")
			// A build error stays in sh for the first cell that needs the
			// index, which reports it under its own name.
			if sh.buildIndex(sh.trainStore(d, folds[fi], ctrs), maxK, ctrs) {
				prefetches.Inc()
			}
			span.End()
		} else {
			_, cellSpan := telemetry.StartSpan(ctx, "cell")
			if err := refineCellEval(d, folds[fi], sh, full[ci], maxK, opts, fi, ci, &cells[fi*nCfg+ci], ctrs); err != nil {
				cellSpan.End()
				return fmt.Errorf("core: refine fold %d %s: %w", fi, full[ci].Label(), err)
			}
			cellNS.Observe(int64(cellSpan.End()))
			cellsScored.Inc()
		}
		if sh.cellsLeft.Add(-1) == 0 {
			sh.release()
			foldsReleased.Inc()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &RefineResult{}
	for ci, cfg := range full {
		cv := &eval.CVResult{}
		var aucW, tprW, fprW, compW stats.Welford
		for fi := range folds {
			cell := &cells[fi*nCfg+ci]
			aucW.Add(cell.counts.AUC())
			tprW.Add(cell.counts.TPR())
			fprW.Add(cell.counts.FPR())
			compW.Add(float64(cell.size))
		}
		cv.MeanAUC = aucW.Mean()
		cv.MeanTPR = tprW.Mean()
		cv.MeanFPR = fprW.Mean()
		cv.MeanComp = compW.Mean()
		cv.VarAUC = aucW.Variance()
		res.Evaluated = append(res.Evaluated, struct {
			Config SamplingConfig
			CV     *eval.CVResult
		}{cfg, cv})
		if res.BestCV == nil ||
			cv.MeanAUC > res.BestCV.MeanAUC ||
			(cv.MeanAUC == res.BestCV.MeanAUC && cv.MeanComp < res.BestCV.MeanComp) {
			res.Best = cfg
			res.BestCV = cv
		}
	}
	return res, nil
}

// refineCell is one (configuration, fold) evaluation.
type refineCell struct {
	counts eval.BinaryCounts
	size   int
}

// indexTask marks a refineTask that builds its fold's neighbour index
// instead of evaluating a configuration.
const indexTask = -1

// refineTask is one unit of Refine's claim order: configuration cfg on
// fold fold, or the fold's index build when cfg is indexTask.
type refineTask struct {
	fold, cfg int
}

// claimOrder lays out the order in which Refine's workers claim tasks.
// Cells are fold-major, so the cells of one fold are adjacent and the
// fold's shared artifacts are hot while they run. With index tasks, fold
// 0's index build is claimed first and fold f+1's midway through fold
// f's cells: it then runs beside fold f's remaining cells rather than
// stalling fold f+1's first oversampling or SMOTE cell. Without them the
// order is the plain fold-major one.
func claimOrder(nFolds, nCfg int, withIndex bool) []refineTask {
	tasks := make([]refineTask, 0, nFolds*(nCfg+1))
	if withIndex {
		tasks = append(tasks, refineTask{fold: 0, cfg: indexTask})
	}
	for fi := 0; fi < nFolds; fi++ {
		for ci := 0; ci < nCfg; ci++ {
			if withIndex && ci == nCfg/2 && fi+1 < nFolds {
				tasks = append(tasks, refineTask{fold: fi + 1, cfg: indexTask})
			}
			tasks = append(tasks, refineTask{fold: fi, cfg: ci})
		}
	}
	return tasks
}

// foldShared holds the artifacts every cell of one fold reads: the
// columnar training store (DESIGN.md §10) and (when the grid contains
// SMOTE points) the minority neighbour index over it. Both are built
// exactly once, by the fold's index task or by whichever of its cells
// gets there first, and are immutable afterwards. cellsLeft counts the
// fold's unfinished tasks, its cells and, with SMOTE points in the
// grid, its index task; the task that brings it to zero releases
// both, since no other task of the fold can still be reading or
// writing them.
type foldShared struct {
	storeOnce  sync.Once
	storeReady atomic.Bool
	store      *dataset.Store

	niOnce  sync.Once
	niReady atomic.Bool
	ni      *sampling.NeighborIndex
	niErr   error

	cellsLeft atomic.Int64
}

// release drops the fold's artifacts once its last task has finished.
func (s *foldShared) release() {
	s.store = nil
	s.ni = nil
}

// refineCounters carries the telemetry handles hoisted out of the task
// loop. The three counters are worker-count-invariant by construction;
// indexWait is not, since only concurrent tasks can wait on each other.
type refineCounters struct {
	storeBuilds *telemetry.Counter
	viewHits    *telemetry.Counter
	mergeSyn    *telemetry.Counter
	indexWait   *telemetry.Histogram
}

// buildOnce runs build under o, and reports whether this call ran it.
// ready short-cuts the finished case; a call that finds another
// goroutine mid-build records how long it waited in wait.
func buildOnce(o *sync.Once, ready *atomic.Bool, wait *telemetry.Histogram, build func()) bool {
	if ready.Load() {
		return false
	}
	start := time.Now()
	built := false
	o.Do(func() {
		build()
		built = true
		ready.Store(true)
	})
	if !built {
		wait.Observe(int64(time.Since(start)))
	}
	return built
}

func (s *foldShared) trainStore(d *dataset.Dataset, fold dataset.Fold, ctrs refineCounters) *dataset.Store {
	buildOnce(&s.storeOnce, &s.storeReady, ctrs.indexWait, func() {
		s.store = dataset.NewStore(d, fold.Train)
		ctrs.storeBuilds.Inc()
	})
	return s.store
}

// buildIndex builds the fold's neighbour index unless another task has
// or is doing so, and reports whether this call built it. A build error
// is kept for the cells that need the index.
func (s *foldShared) buildIndex(st *dataset.Store, maxK int, ctrs refineCounters) bool {
	return buildOnce(&s.niOnce, &s.niReady, ctrs.indexWait, func() {
		s.ni, s.niErr = sampling.BuildViewIndex(st, eval.PositiveClass, maxK)
		if s.niErr != nil {
			s.niErr = fmt.Errorf("neighbour index: %w", s.niErr)
		}
	})
}

func (s *foldShared) index(st *dataset.Store, maxK int, ctrs refineCounters) (*sampling.NeighborIndex, error) {
	s.buildIndex(st, maxK, ctrs)
	return s.ni, s.niErr
}

// refineCellEval evaluates one configuration on one fold. The cell RNG
// is seeded from (seed, fold, config) so the result does not depend on
// which worker runs the cell or in what order. Each cell trains from
// the configuration's view of the fold's shared store; oversampling
// and SMOTE cells draw on the fold's shared neighbour index when the
// grid holds SMOTE points.
func refineCellEval(d *dataset.Dataset, fold dataset.Fold, sh *foldShared, cfg SamplingConfig, maxK int, opts Options, fi, ci int, cell *refineCell, ctrs refineCounters) error {
	st := sh.trainStore(d, fold, ctrs)

	rng := stats.NewRNG(opts.Seed ^ (uint64(fi+1) << 20) ^ uint64(ci+1))
	var ni *sampling.NeighborIndex
	if maxK > 0 && (cfg.Kind == Oversampling || cfg.Kind == Smote) {
		var err error
		if ni, err = sh.index(st, maxK, ctrs); err != nil {
			return err
		}
	}
	v, err := sampledView(st, ni, cfg, rng)
	if err != nil {
		return fmt.Errorf("transform: %w", err)
	}
	if !v.HasMissing() {
		ctrs.viewHits.Inc()
		if cfg.Kind == Smote {
			ctrs.mergeSyn.Add(int64(v.Appended()))
		}
	}
	model, err := DefaultLearner().FitTreeView(v)
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	cm := eval.NewConfusionMatrix(d.ClassValues)
	for _, ti := range fold.Test {
		in := &d.Instances[ti]
		if err := cm.Record(in.Class, model.Classify(in.Values), in.Weight); err != nil {
			return err
		}
	}
	cell.counts = cm.Binary(eval.PositiveClass)
	cell.size = model.Size()
	return nil
}
