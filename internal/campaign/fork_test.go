package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"edem/internal/campaign"
	"edem/internal/propane"
	"edem/internal/targets/mp3gain"
)

func forkTarget() mp3gain.System {
	return mp3gain.System{TracksPerCase: 3, SamplesPerTrack: 600}
}

// slowPath hides a target's propane.Forkable implementation, so the
// engine runs every cell on the slow path: the reference every
// fork-path result is compared against.
func slowPath(t propane.Target) propane.Target { return struct{ propane.Target }{t} }

func forkSpec() propane.Spec {
	return propane.Spec{
		Dataset:        "MG-FORK",
		Module:         mp3gain.ModuleRGain,
		InjectAt:       propane.Entry,
		SampleAt:       propane.Exit,
		InjectionTimes: []int{1, 2},
		TestCases:      2,
		Seed:           7,
		BitStride:      8,
	}
}

// TestForkEquivalentToSlowEngine pins the campaign-level acceptance
// criterion of the fast path: the fork and the slow path produce
// bit-identical records, datasets and ARFF bytes against a real
// Forkable target.
func TestForkEquivalentToSlowEngine(t *testing.T) {
	spec := forkSpec()
	slow, err := campaign.Run(context.Background(), slowPath(forkTarget()), spec, campaign.Config{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := campaign.Run(context.Background(), forkTarget(), spec, campaign.Config{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, fast.Campaign, slow.Campaign)
	// The execution path is not a plan parameter: the journal identity
	// must not depend on it.
	if fast.PlanHash != slow.PlanHash {
		t.Fatalf("plan hash differs across execution paths: %s vs %s", fast.PlanHash, slow.PlanHash)
	}
	if slow.Fork != (propane.ForkStats{}) {
		t.Fatalf("slow run reported fork stats: %+v", slow.Fork)
	}
	if fast.Fork.Forked == 0 || fast.Fork.Snapshots == 0 {
		t.Fatalf("fast run did not fork: %+v", fast.Fork)
	}
	if fast.Fork.Fallbacks != 0 {
		t.Fatalf("unexpected fallbacks on a Forkable target: %+v", fast.Fork)
	}
}

// TestForkKillAndResume interrupts a journaled forked campaign, resumes
// it, and asserts bit-identity with an uninterrupted slow run — the
// journal is interchangeable between the two paths.
func TestForkKillAndResume(t *testing.T) {
	spec := forkSpec()
	dir := filepath.Join(t.TempDir(), "journal")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := campaign.Config{
		Journal: dir,
		Shards:  8,
		OnCheckpoint: func(done, total int) {
			if done >= 2 {
				cancel()
			}
		},
	}
	if _, err := campaign.Run(ctx, forkTarget(), spec, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: got %v, want context.Canceled", err)
	}

	res, err := campaign.Run(context.Background(), forkTarget(), spec,
		campaign.Config{Journal: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.ShardsRestored == 0 {
		t.Fatal("resume restored nothing; the kill happened too late to exercise restore")
	}
	if res.Fork.Forked == 0 {
		t.Fatalf("resumed shards did not fork: %+v", res.Fork)
	}

	ref, err := campaign.Run(context.Background(), slowPath(forkTarget()), spec, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, res.Campaign, ref.Campaign)

	// A slow-path resume of a fork-path journal replays identically: the
	// journal records results, not execution strategy.
	res2, err := campaign.Run(context.Background(), slowPath(forkTarget()), spec,
		campaign.Config{Journal: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	sameCampaign(t, res2.Campaign, ref.Campaign)
}

// TestSealedJournalIndependentOfExecution: a sealed journal holds
// results only, so its bytes are the same whether the shards ran
// forked on one worker, forked on four (where the fast path's memo and
// convergence counts depend on scheduling), or on the slow path.
func TestSealedJournalIndependentOfExecution(t *testing.T) {
	root := t.TempDir()
	run := func(name string, target propane.Target, workers int) (manifest, log []byte) {
		t.Helper()
		spec := forkSpec()
		spec.Workers = workers
		dir := filepath.Join(root, name)
		res, err := campaign.Run(context.Background(), target, spec, campaign.Config{Journal: dir, Shards: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, forkable := target.(propane.Forkable); forkable && res.Fork.Forked == 0 {
			t.Fatalf("%s: fast path did not engage: %+v", name, res.Fork)
		}
		return readFileT(t, filepath.Join(dir, "manifest.json")), readFileT(t, filepath.Join(dir, "checkpoints.jsonl"))
	}
	refManifest, refLog := run("slow", slowPath(forkTarget()), 1)
	for _, workers := range []int{1, 4} {
		name := fmt.Sprintf("fork-workers%d", workers)
		m, log := run(name, forkTarget(), workers)
		if !bytes.Equal(m, refManifest) {
			t.Errorf("%s: manifest differs from the slow path's", name)
		}
		if !bytes.Equal(log, refLog) {
			t.Errorf("%s: sealed checkpoint log differs from the slow path's", name)
		}
	}
}

// TestForkFallbackNonForkable: a target that does not implement
// Forkable, or hides it, runs on the slow path and reports no
// fast-path events.
func TestForkFallbackNonForkable(t *testing.T) {
	for _, c := range []struct {
		target propane.Target
		spec   propane.Spec
	}{
		{newFakeTarget(), fakeSpec(3)},
		{slowPath(forkTarget()), forkSpec()},
	} {
		res, err := campaign.Run(context.Background(), c.target, c.spec, campaign.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fork != (propane.ForkStats{}) {
			t.Fatalf("%T: slow-path campaign reported fork stats: %+v", c.target, res.Fork)
		}
	}
}
