package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"edem/internal/campaign"
	"edem/internal/core"
	"edem/internal/dataset"
	"edem/internal/propane"
)

// TestCmdCampaignFlagValidation pins the target-selection errors that
// need no campaign execution.
func TestCmdCampaignFlagValidation(t *testing.T) {
	if err := run([]string{"campaign"}); err == nil {
		t.Error("campaign without -dataset/-all should fail")
	}
	if err := run([]string{"campaign", "-dataset", "MG-A1", "-all"}); err == nil {
		t.Error("campaign with both -dataset and -all should fail")
	}
	if err := run([]string{"campaign", "-dataset", "NOPE-Z9", "-journal", t.TempDir()}); err == nil {
		t.Error("campaign with bad dataset ID should fail")
	}
}

// TestCmdCampaignStopAndResume drives the whole story through the CLI:
// start a journaled campaign, stop it after two checkpoints (a
// controlled kill), resume it to completion, then regenerate the ARFF
// dataset twice — once from the resumed journal, once directly — and
// require byte identity.
func TestCmdCampaignStopAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	journal := filepath.Join(t.TempDir(), "journal")
	scale := []string{"-dataset", "MG-A1", "-scale", "2", "-stride", "16"}

	args := append([]string{"campaign", "-journal", journal, "-shards", "6", "-stop-after", "2"}, scale...)
	if err := run(args); err != nil {
		t.Fatalf("interrupted campaign should exit cleanly: %v", err)
	}
	if _, err := os.Stat(filepath.Join(journal, "MG-A1", "manifest.json")); err != nil {
		t.Fatalf("journal manifest missing: %v", err)
	}

	// Without -resume the half-finished journal must be refused.
	args = append([]string{"campaign", "-journal", journal, "-shards", "6"}, scale...)
	if err := run(args); err == nil {
		t.Fatal("existing journal without -resume should fail")
	}

	args = append([]string{"campaign", "-journal", journal, "-shards", "6", "-resume"}, scale...)
	if err := run(args); err != nil {
		t.Fatalf("resume: %v", err)
	}

	dir := t.TempDir()
	resumed := filepath.Join(dir, "resumed.arff")
	direct := filepath.Join(dir, "direct.arff")
	args = append([]string{"inject", "-journal", journal, "-arff", resumed}, scale...)
	if err := run(args); err != nil {
		t.Fatalf("inject from journal: %v", err)
	}
	args = append([]string{"inject", "-arff", direct}, scale...)
	if err := run(args); err != nil {
		t.Fatalf("direct inject: %v", err)
	}
	a, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("ARFF from resumed journal differs from direct run")
	}
}

// TestCmdCampaignFork drives the fork fast path — the only path the
// CLI takes for a Forkable target — through a stopped and resumed
// journaled campaign. The journal's ARFF must be byte-identical to the
// slow path's, computed in-process with the target's Forkable
// implementation hidden. The retired -fork flag must be rejected.
func TestCmdCampaignFork(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign; skipped in -short mode")
	}
	journal := filepath.Join(t.TempDir(), "journal")
	scale := []string{"-dataset", "MG-A1", "-scale", "2", "-stride", "16"}

	if err := run(append([]string{"campaign", "-journal", journal, "-fork"}, scale...)); err == nil {
		t.Fatal("-fork should be rejected as an unknown flag")
	}
	args := append([]string{"campaign", "-journal", journal, "-shards", "6", "-stop-after", "2"}, scale...)
	if err := run(args); err != nil {
		t.Fatalf("interrupted forked campaign should exit cleanly: %v", err)
	}
	args = append([]string{"campaign", "-journal", journal, "-shards", "6", "-resume"}, scale...)
	if err := run(args); err != nil {
		t.Fatalf("forked resume: %v", err)
	}
	forked := filepath.Join(t.TempDir(), "forked.arff")
	args = append([]string{"inject", "-journal", journal, "-arff", forked}, scale...)
	if err := run(args); err != nil {
		t.Fatalf("inject from journal: %v", err)
	}
	a, err := os.ReadFile(forked)
	if err != nil {
		t.Fatal(err)
	}

	opts := core.DefaultOptions()
	opts.TestCases, opts.BitStride = 2, 16
	target, spec, err := core.SpecFor("MG-A1", opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := campaign.Run(ctx, struct{ propane.Target }{target}, spec, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fork != (propane.ForkStats{}) {
		t.Fatalf("slow reference forked: %+v", res.Fork)
	}
	d, err := core.Preprocess(ctx, res.Campaign)
	if err != nil {
		t.Fatal(err)
	}
	var slow bytes.Buffer
	if err := dataset.WriteARFF(&slow, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, slow.Bytes()) {
		t.Fatal("forked ARFF differs from slow-path ARFF")
	}
}
