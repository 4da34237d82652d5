package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"edem/internal/campaign"
	"edem/internal/core"
	"edem/internal/dataset"
)

// runCampaigns is campaign-journaled: Steps 1-2 for one dataset per
// target system into a fresh journal, a replay of each completed
// journal, and the replayed dataset written as ARFF. One injected run
// is one operation; a round is all datasets once.
func runCampaigns(ctx context.Context, r *runner) error {
	if err := setUpExport(ctx, r); err != nil {
		return err
	}

	var rounds []float64
	var runs int64
	var busy time.Duration
	for len(rounds) == 0 || busy < r.window {
		st, err := r.campaignRound(ctx, len(rounds), nil)
		if err != nil {
			return err
		}
		rounds = append(rounds, st.wall.Seconds())
		runs += st.runs
		busy += st.wall
	}
	r.samples = len(rounds)
	r.e2e["ops_per_s"] = float64(runs) / busy.Seconds()
	r.e2e["op_p50_ms"] = 1e3 * median(rounds)
	r.e2e["op_p95_ms"] = 1e3 * percentile(append([]float64(nil), rounds...), 0.95)
	r.report("campaign_runs_per_s", r.e2e["ops_per_s"], "runs/s")
	r.report("campaign_round_s", median(rounds), "s")
	if !r.traced {
		return nil
	}

	st, err := r.campaignRound(ctx, len(rounds), r.tr)
	if err != nil {
		return err
	}
	untraced := busy.Seconds() / float64(len(rounds))
	r.layer["trace.overhead_frac"] = st.wall.Seconds()/untraced - 1
	return nil
}

// roundStats is what one campaign round measured.
type roundStats struct {
	wall time.Duration // campaigns, replays, preprocessing and ARFF writes
	runs int64
}

// campaignRound runs every campaign dataset once into a fresh journal
// root. Only the calls into the layers are timed; the checks between
// them are not. With a tracer it also fills the per-layer metrics.
func (r *runner) campaignRound(ctx context.Context, n int, tr *tracer) (roundStats, error) {
	var st roundStats
	root := filepath.Join(r.scratch, fmt.Sprintf("round%d", n))
	defer os.RemoveAll(root)
	opts := r.opts()
	opts.Journal = root
	roundStart := time.Now()
	rootSpan := tr.start("core.campaign_round", -1)
	defer tr.end(rootSpan)
	L := r.layer
	timed := func(name string, f func() error) (time.Duration, error) {
		s := tr.start(name, rootSpan)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		st.wall += d
		tr.end(s)
		return d, err
	}

	for _, id := range r.sz.campaignIDs {
		var fresh, replay *campaign.Result
		var d, rd *dataset.Dataset
		arffPath := filepath.Join(root, id+".arff")
		runDur, err := timed("campaign.run", func() (err error) {
			fresh, err = core.CampaignResult(ctx, id, opts)
			return err
		})
		if err != nil {
			return st, err
		}
		// Replay reads the completed journal back without running the
		// target; it needs Resume, the only other option changed.
		ro := opts
		ro.Resume = true
		if _, err := timed("campaign.replay", func() (err error) {
			replay, err = core.CampaignResult(ctx, id, ro)
			return err
		}); err != nil {
			return st, err
		}
		if _, err := timed("dataset.preprocess", func() (err error) {
			rd, err = core.Preprocess(ctx, replay.Campaign)
			return err
		}); err != nil {
			return st, err
		}
		if _, err := timed("dataset.arff_write", func() error { return writeARFF(arffPath, rd) }); err != nil {
			return st, err
		}

		// Checks, untimed: the replay must equal the in-memory result
		// and the ARFF its pin; skipped cells are failed runs.
		ops := int64(len(fresh.Campaign.Records))
		st.runs += ops
		r.attempted += ops
		if d, err = core.Preprocess(ctx, fresh.Campaign); err != nil {
			return st, err
		}
		var mem bytes.Buffer
		if err := dataset.WriteARFF(&mem, d); err != nil {
			return st, err
		}
		onDisk, err := os.ReadFile(arffPath)
		if err != nil {
			return st, err
		}
		switch {
		case replay.ShardsRun != 0 || replay.ShardsRestored != replay.Shards:
			r.fail(ops, "%s: replay ran %d shards instead of restoring all %d", id, replay.ShardsRun, replay.Shards)
		case !bytes.Equal(onDisk, mem.Bytes()):
			r.fail(ops, "%s: replayed dataset differs from the in-memory dataset", id)
		case !r.checkPin("arff/"+id, onDisk):
			r.failed += ops
		default:
			r.failed += int64(len(fresh.Skipped))
			if len(fresh.Skipped) > 0 {
				r.problems = append(r.problems, fmt.Sprintf("%s: %d cells skipped", id, len(fresh.Skipped)))
			}
		}

		if tr == nil {
			continue
		}
		L["campaign.runs_per_s."+systemKey(id)] = float64(ops) / runDur.Seconds()
		L["campaign.forked"] += float64(fresh.Fork.Forked)
		L["campaign.fallbacks"] += float64(fresh.Fork.Fallbacks)
		L["campaign.shards"] += float64(fresh.Shards)
		L["campaign.retries"] += float64(fresh.Retries + replay.Retries)
		L["campaign.skipped"] += float64(len(fresh.Skipped))
		L["campaign.torn_tails"] += float64(replay.TornTails)
		L["dataset.instances"] += float64(rd.Len())
		jb, err := dirBytes(filepath.Join(root, id))
		if err != nil {
			return st, err
		}
		L["campaign.journal_bytes"] += float64(jb)
	}
	if tr != nil {
		L["campaign.busy_s"] = tr.total("campaign.run").Seconds()
		L["campaign.replay_s"] = tr.total("campaign.replay").Seconds()
		L["dataset.preprocess_s"] = tr.total("dataset.preprocess").Seconds()
		L["dataset.arff_write_s"] = tr.total("dataset.arff_write").Seconds()
		L["trace.coverage"] = st.wall.Seconds() / time.Since(roundStart).Seconds()
	}
	return st, nil
}

// writeARFF writes d to path as `edem inject -arff` does.
func writeARFF(path string, d *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dataset.WriteARFF(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
