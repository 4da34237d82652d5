package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"edem/internal/core"
	"edem/internal/dataset"
	"edem/internal/mining/eval"
	"edem/internal/mining/sampling"
	"edem/internal/predicate"
	"edem/internal/stats"
)

// runPipeline is run-7z-b2: the whole methodology, from dataset ID to
// compiled predicate, in memory. One run is one operation.
func runPipeline(ctx context.Context, r *runner) error {
	if err := setUpExport(ctx, r); err != nil {
		return err
	}

	id, grid, opts := r.sz.pipelineID, core.RefineGrid(false), r.opts()
	var walls []float64
	var text []byte
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < r.window {
		t0 := time.Now()
		rep, err := core.RunMethodology(ctx, id, grid, opts)
		if err != nil {
			return err
		}
		prog, err := predicate.Compile(rep.Predicate)
		if err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
		r.attempted++
		if text, err = r.checkReport(rep, prog); err != nil {
			return err
		}
	}
	elapsed := time.Since(start).Seconds()
	r.samples = len(walls)
	r.e2e["ops_per_s"] = float64(len(walls)) / elapsed
	r.e2e["op_p50_ms"] = 1e3 * median(walls)
	r.e2e["op_p95_ms"] = 1e3 * percentile(append([]float64(nil), walls...), 0.95)
	r.report("pipeline_s", median(walls), "s")
	if !r.traced {
		return nil
	}

	tracedWall, err := r.tracedPipeline(ctx, id, grid, opts, text)
	if err != nil {
		return err
	}
	r.layer["trace.overhead_frac"] = tracedWall.Seconds()/median(walls) - 1
	return nil
}

// checkReport checks one methodology output and returns the predicate
// text: pinned at seed 1; at every seed the compiled program must agree
// with the predicate's AST, and refinement may never score below the
// baseline it competes with.
func (r *runner) checkReport(rep *core.Report, prog *predicate.Program) ([]byte, error) {
	text, err := rep.Predicate.MarshalText()
	if err != nil {
		return nil, err
	}
	ok := r.checkPin("predicate/"+rep.ID, text)
	if bad := compiledDisagreement(rep.Predicate, prog, r.seed); bad >= 0 {
		r.problems = append(r.problems, fmt.Sprintf("%s: compiled predicate disagrees with its AST on probe %d", rep.ID, bad))
		ok = false
	}
	if rep.Refined.BestCV.MeanAUC < rep.Baseline.MeanAUC {
		r.problems = append(r.problems, fmt.Sprintf("%s: refined AUC %.6f below baseline %.6f",
			rep.ID, rep.Refined.BestCV.MeanAUC, rep.Baseline.MeanAUC))
		ok = false
	}
	if !ok {
		r.failed++
	}
	return text, nil
}

// compiledDisagreement evaluates the program and the AST on probe
// vectors placed on, just below and just above every atom threshold
// (the boundaries where a lowering bug shows), plus NaN. It returns the
// first disagreeing probe, or -1.
func compiledDisagreement(p *predicate.Predicate, prog *predicate.Program, seed uint64) int {
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	var thresholds []float64
	for _, c := range p.Clauses {
		for _, a := range c {
			t := a.Threshold
			thresholds = append(thresholds, t, math.Nextafter(t, math.Inf(-1)), math.Nextafter(t, math.Inf(1)))
		}
	}
	thresholds = append(thresholds, math.NaN(), 0)
	values := make([]float64, len(p.Vars))
	for probe := 0; probe < 4096; probe++ {
		for i := range values {
			values[i] = thresholds[rng.Intn(len(thresholds))]
		}
		if p.Eval(values) != prog.Eval(values) {
			return probe
		}
	}
	return -1
}

// tracedPipeline repeats the run as the sequence of public calls
// core.RunMethodology makes, with a span around each, then replays
// refinement serially to split its time between sampling and tree
// induction. It returns the wall time of the traced pipeline.
func (r *runner) tracedPipeline(ctx context.Context, id string, grid []core.SamplingConfig, opts core.Options, want []byte) (time.Duration, error) {
	tr := r.tr
	root := tr.start("core.pipeline", -1)
	s := tr.start("campaign.run", root)
	res, err := core.CampaignResult(ctx, id, opts)
	if err != nil {
		return 0, err
	}
	campaignDur := tr.end(s)
	s = tr.start("dataset.preprocess", root)
	d, err := core.Preprocess(ctx, res.Campaign)
	if err != nil {
		return 0, err
	}
	tr.end(s)
	s = tr.start("eval.baseline", root)
	if _, err := core.Baseline(ctx, d, opts); err != nil {
		return 0, err
	}
	tr.end(s)
	s = tr.start("core.refine", root)
	refined, err := core.Refine(ctx, d, grid, opts)
	if err != nil {
		return 0, err
	}
	refineWall := tr.end(s)

	// The final fit: the winning configuration's transform on the full
	// dataset, then C4.5 on the result (core.RunMethodologyOn's tail).
	fit := tr.start("core.final_fit", root)
	final := d
	if tf := refined.Best.Transform(); tf != nil {
		s = tr.start("sampling.final_transform", fit)
		if final, err = tf(d, stats.NewRNG(opts.Seed^0xfeed)); err != nil {
			return 0, err
		}
		tr.end(s)
	}
	s = tr.start("tree.final_fit", fit)
	t, err := core.DefaultLearner().FitTree(final)
	if err != nil {
		return 0, err
	}
	tr.end(s)
	tr.end(fit)
	s = tr.start("predicate.extract", root)
	pred, err := predicate.FromTree(t, eval.PositiveClass, id)
	if err != nil {
		return 0, err
	}
	prog, err := predicate.Compile(pred)
	if err != nil {
		return 0, err
	}
	tr.end(s)
	wall := tr.end(root)

	text, err := pred.MarshalText()
	if err != nil {
		return 0, err
	}
	r.attempted++
	if !bytes.Equal(text, want) {
		r.fail(1, "%s: traced pipeline predicate differs from core.RunMethodology's", id)
	}

	L := r.layer
	L["campaign.busy_s"] = campaignDur.Seconds()
	L["campaign.runs_per_s."+systemKey(id)] = float64(len(res.Campaign.Records)) / campaignDur.Seconds()
	L["campaign.forked"] = float64(res.Fork.Forked)
	L["campaign.fallbacks"] = float64(res.Fork.Fallbacks)
	L["campaign.shards"] = float64(res.Shards)
	L["campaign.retries"] = float64(res.Retries)
	L["campaign.skipped"] = float64(len(res.Skipped))
	L["dataset.preprocess_s"] = tr.total("dataset.preprocess").Seconds()
	L["dataset.instances"] = float64(d.Len())
	L["eval.baseline_s"] = tr.total("eval.baseline").Seconds()
	L["core.refine_s"] = refineWall.Seconds()
	L["core.final_fit_s"] = tr.total("core.final_fit").Seconds()
	L["predicate.extract_s"] = tr.total("predicate.extract").Seconds()
	L["predicate.atoms"] = float64(prog.Atoms())
	L["trace.coverage"] = tr.coverage(root)

	rp, err := replayRefine(ctx, d, grid, opts, tr)
	if err != nil {
		return 0, err
	}
	exact := rp.matches(refined)
	L["refine.replay_exact"] = 0
	if exact {
		L["refine.replay_exact"] = 1
	} else {
		r.problems = append(r.problems, fmt.Sprintf("%s: serial refine replay does not reproduce core.Refine's mean AUCs; per-layer sampling/tree figures are invalid", id))
	}
	L["refine.cells"] = float64(rp.cells)
	L["refine.parallel_efficiency"] = rp.busy.Seconds() / (refineWall.Seconds() * float64(gomaxprocs()))
	L["dataset.store_s"] = tr.total("dataset.store").Seconds()
	L["sampling.index_s"] = tr.total("sampling.index").Seconds()
	L["sampling.view_s"] = tr.total("sampling.view").Seconds()
	L["sampling.minority_rows"] = float64(rp.minority)
	L["sampling.synthetic_rows"] = float64(rp.synthetic)
	L["tree.fit_s"] = tr.total("tree.fit").Seconds()
	L["tree.classify_s"] = tr.total("tree.classify").Seconds()
	L["tree.nodes"] = float64(rp.nodes)
	fmt.Fprintf(r.log, "edembench: %s traced pipeline %.3fs, refine %.3fs, serial replay of %d cells %.3fs (parallel efficiency %.3f)\n",
		id, wall.Seconds(), refineWall.Seconds(), rp.cells, rp.busy.Seconds(), L["refine.parallel_efficiency"])
	return wall, nil
}

// systemKey maps a dataset ID to its target system's metric suffix.
func systemKey(id string) string {
	switch id[:2] {
	case "7Z":
		return "7z"
	case "FG":
		return "fg"
	default:
		return "mg"
	}
}

// replayed is the outcome of a serial refinement replay.
type replayed struct {
	meanAUC   []float64 // per configuration, NoSampling first
	cells     int
	busy      time.Duration // summed time of the replayed folds and cells
	minority  int           // minority rows over the folds' training stores
	synthetic int           // rows SMOTE appended over all SMOTE cells
	nodes     int           // tree nodes fitted over all cells
}

// matches reports whether the replay reproduced every configuration's
// mean AUC bit for bit.
func (rp *replayed) matches(res *core.RefineResult) bool {
	if len(res.Evaluated) != len(rp.meanAUC) {
		return false
	}
	for i, e := range res.Evaluated {
		if math.Float64bits(e.CV.MeanAUC) != math.Float64bits(rp.meanAUC[i]) {
			return false
		}
	}
	return true
}

// replayRefine re-runs core.Refine's (configuration, fold) cells one at
// a time through the view-path public functions, with spans around the
// store build, the neighbour index, each sampling view, each tree fit
// and each fold's classification. It reproduces core.Refine's cell
// recipe — the same folds, per-cell RNG seeds and transforms — so its
// mean AUCs must equal core.Refine's exactly.
func replayRefine(ctx context.Context, d *dataset.Dataset, grid []core.SamplingConfig, opts core.Options, tr *tracer) (*replayed, error) {
	full := append([]core.SamplingConfig{{Kind: core.NoSampling}}, grid...)
	if opts.Folds <= 0 {
		return nil, fmt.Errorf("replay needs an explicit fold count")
	}
	folds, err := dataset.StratifiedKFold(d, opts.Folds, stats.NewRNG(opts.Seed))
	if err != nil {
		return nil, err
	}
	maxK := 0
	for _, c := range full {
		if c.Kind == core.Smote && c.K > maxK {
			maxK = c.K
		}
	}
	root := tr.start("core.refine_replay", -1)
	defer tr.end(root)
	rp := &replayed{}
	aucs := make([]stats.Welford, len(full))
	for fi, fold := range folds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		foldStart := time.Now()
		s := tr.start("dataset.store", root)
		st := dataset.NewStore(d, fold.Train)
		tr.end(s)
		for _, c := range st.Classes() {
			if c == eval.PositiveClass {
				rp.minority++
			}
		}
		var ni *sampling.NeighborIndex
		if maxK > 0 {
			s = tr.start("sampling.index", root)
			if ni, err = sampling.BuildViewIndex(st, eval.PositiveClass, maxK); err != nil {
				return nil, err
			}
			tr.end(s)
		}
		for ci, cfg := range full {
			rng := stats.NewRNG(opts.Seed ^ (uint64(fi+1) << 20) ^ uint64(ci+1))
			s = tr.start("sampling.view", root)
			v := st.IdentityView()
			switch cfg.Kind {
			case core.Undersampling:
				v, err = sampling.UndersampleView(st, 0, cfg.Percent, rng)
			case core.Oversampling:
				if ni != nil {
					v, err = ni.OversampleView(cfg.Percent, rng)
				} else {
					v, err = sampling.OversampleView(st, eval.PositiveClass, cfg.Percent, rng)
				}
			case core.Smote:
				v, err = ni.SMOTEView(cfg.Percent, cfg.K, rng)
			}
			if err != nil {
				return nil, err
			}
			tr.end(s)
			if cfg.Kind == core.Smote {
				rp.synthetic += v.Appended()
			}
			s = tr.start("tree.fit", root)
			model, err := core.DefaultLearner().FitTreeView(v)
			if err != nil {
				return nil, err
			}
			tr.end(s)
			rp.nodes += model.Size()
			s = tr.start("tree.classify", root)
			cm := eval.NewConfusionMatrix(d.ClassValues)
			for _, ti := range fold.Test {
				in := &d.Instances[ti]
				if err := cm.Record(in.Class, model.Classify(in.Values), in.Weight); err != nil {
					return nil, err
				}
			}
			tr.end(s)
			aucs[ci].Add(cm.Binary(eval.PositiveClass).AUC())
			rp.cells++
		}
		rp.busy += time.Since(foldStart)
	}
	for i := range aucs {
		rp.meanAUC = append(rp.meanAUC, aucs[i].Mean())
	}
	return rp, nil
}
