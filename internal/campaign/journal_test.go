package campaign_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"edem/internal/campaign"
)

// TestSealedJournalBytesPin pins the exact bytes of a sealed journal
// for one small fixed spec. The hex state format decodes the same
// whether or not it is zero-padded, so a round-trip test cannot see a
// format change; these hashes can.
func TestSealedJournalBytesPin(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	if _, err := campaign.Run(context.Background(), newFakeTarget(), fakeSpec(2),
		campaign.Config{Journal: dir, Shards: 5}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"checkpoints.jsonl": "f4e4eaf9e8d6a95d869d6848e94f07b469bc395195b9d0adc225186f44e1a149",
		"manifest.json":     "08157c77dcfb18c959a04974d0edc0fccb46e93802f894186f7288499c8c8290",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}

// TestResumeAtEveryCrashPoint cuts the checkpoint log of a finished
// 5-shard journal where a kill could leave it — at every line boundary,
// one byte either side of it, and in the middle of every line — and
// resumes. Every resume must seal to the bytes of the uninterrupted run
// and reproduce its records.
func TestResumeAtEveryCrashPoint(t *testing.T) {
	spec := fakeSpec(2)
	refDir := filepath.Join(t.TempDir(), "ref")
	ref, err := campaign.Run(context.Background(), newFakeTarget(), spec,
		campaign.Config{Journal: refDir, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	manifest := readFileT(t, filepath.Join(refDir, "manifest.json"))
	full := readFileT(t, filepath.Join(refDir, "checkpoints.jsonl"))

	cuts := map[int]bool{}
	start := 0
	for i, b := range full {
		if b != '\n' {
			continue
		}
		cuts[start-1], cuts[start], cuts[start+1] = true, true, true
		cuts[(start+i)/2] = true
		start = i + 1
	}
	cuts[start-1], cuts[start] = true, true

	for cut := range cuts {
		if cut < 0 || cut > len(full) {
			continue
		}
		dir := filepath.Join(t.TempDir(), "journal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "checkpoints.jsonl"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := campaign.Run(context.Background(), newFakeTarget(), spec,
			campaign.Config{Journal: dir, Resume: true})
		if err != nil {
			t.Fatalf("cut at byte %d: resume: %v", cut, err)
		}
		if got := readFileT(t, filepath.Join(dir, "checkpoints.jsonl")); !bytes.Equal(got, full) {
			t.Fatalf("cut at byte %d: sealed log differs from the uninterrupted run's", cut)
		}
		sameCampaign(t, res.Campaign, ref.Campaign)
	}
}
