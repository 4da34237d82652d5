package serve

import (
	"path/filepath"
	"strings"
	"testing"

	"edem/internal/propane"
)

func TestBundleRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.json")
	in := testBundle("MG-A1", "FG-B2")
	in.Detectors[1].Location = "Entry"
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := LoadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Detectors) != 2 {
		t.Fatalf("detectors = %d", len(out.Detectors))
	}
	for i, e := range out.Detectors {
		want := in.Detectors[i]
		if e.ID != want.ID || e.Module != want.Module || e.Location != want.Location {
			t.Fatalf("entry %d = %+v, want %+v", i, e, want)
		}
		if e.Predicate == nil || len(e.Predicate.Clauses) != len(want.Predicate.Clauses) {
			t.Fatalf("entry %d predicate did not round-trip: %+v", i, e.Predicate)
		}
		// The decoded predicate must evaluate identically.
		for _, v := range []float64{5, 100, 100.5, 500} {
			if e.Predicate.Eval([]float64{v}) != want.Predicate.Eval([]float64{v}) {
				t.Fatalf("entry %d predicate diverges at %g", i, v)
			}
		}
	}
	if loc, err := out.Detectors[1].ParseLocation(); err != nil || loc != propane.Entry {
		t.Fatalf("location = %v, %v", loc, err)
	}
}

func TestBundleValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Bundle)
		want string
	}{
		{"bad version", func(b *Bundle) { b.Version = 99 }, "version"},
		{"no detectors", func(b *Bundle) { b.Detectors = nil }, "no detectors"},
		{"empty id", func(b *Bundle) { b.Detectors[0].ID = "" }, "empty id"},
		{"duplicate id", func(b *Bundle) { b.Detectors[1].ID = b.Detectors[0].ID }, "duplicate"},
		{"bad location", func(b *Bundle) { b.Detectors[0].Location = "Middle" }, "location"},
		{"nil predicate", func(b *Bundle) { b.Detectors[0].Predicate = nil }, "no predicate"},
	}
	for _, tc := range cases {
		b := testBundle("A", "B")
		tc.mut(b)
		err := b.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if err := testBundle("A", "B").Validate(); err != nil {
		t.Errorf("valid bundle rejected: %v", err)
	}
}

// TestBundleWriteFileKeepsOldOnInvalid: writing an invalid bundle over
// a good one fails and leaves the good one in place.
func TestBundleWriteFileKeepsOldOnInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bundle.json")
	if err := testBundle("MG-A1").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	bad := testBundle("MG-A1")
	bad.Detectors = nil
	if err := bad.WriteFile(path); err == nil {
		t.Fatal("invalid bundle written")
	}
	out, err := LoadBundle(path)
	if err != nil {
		t.Fatalf("existing bundle lost: %v", err)
	}
	if len(out.Detectors) != 1 || out.Detectors[0].ID != "MG-A1" {
		t.Fatalf("existing bundle changed: %+v", out.Detectors)
	}
}
