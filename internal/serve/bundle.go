// Package serve is the online detector-serving runtime: it takes the
// predicates the methodology learns (paper §VII-D deploys them as
// runtime assertions) and serves them as a long-running network
// service with production robustness semantics — per-request deadlines
// with context propagation, a bounded admission queue that sheds load
// with explicit rejections once full, a per-detector circuit breaker
// with half-open probing, configurable fail-open/fail-closed
// degradation, hot predicate reload via atomic bundle swap, draining
// shutdown, and a detector lifecycle — shadow evaluation of a
// candidate bundle beside the live one, canary promotion with
// automatic rollback, and feedback/drift journalling through
// internal/lifecycle (see lifecycle.go). The design follows ZOFI's
// zero-overhead stance: the detection path stays cheap and bounded
// even under stress, and overload degrades to explicit rejection
// instead of queue collapse.
//
// Role in the methodology: the deployment half of Step 4 and §VII-D —
// `edem export` packages learnt predicates into a bundle, `edem serve`
// evaluates streamed state samples against them, serve.Client
// re-validates datasets against a remote service, and `edem lifecycle`
// closes the loop back into refinement.
//
// Ownership and concurrency: a Bundle is immutable once loaded. A
// Server is safe for unrestricted concurrent use. Up to two bundle
// generations are live at once — the serving bundle and an optional
// shadow candidate — each swapped atomically; a request resolves the
// generation that serves it exactly once, in-flight requests finish on
// the generation they started with, and the client-visible response is
// produced solely by the serving generation (candidate evaluation
// happens after the response is written). A Client is safe for
// concurrent use.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"edem/internal/durable"
	"edem/internal/predicate"
	"edem/internal/propane"
)

// BundleVersion is the current on-disk bundle format version.
const BundleVersion = 1

// Bundle is the deployable detector artefact written by `edem export`:
// one or more learnt predicates, each tagged with the module and
// instrumentation location it guards, so the serving runtime (and any
// future in-process deployment) knows where each detector belongs.
type Bundle struct {
	Version   int           `json:"version"`
	Detectors []BundleEntry `json:"detectors"`
}

// BundleEntry is one deployable detector.
type BundleEntry struct {
	// ID names the detector; requests select it by this key. By
	// convention it is the Table II dataset ID the predicate was learnt
	// from (e.g. "MG-B1").
	ID string `json:"id"`
	// Module and Location identify the guarded code location — the
	// sampling location of the campaign the predicate was learnt from.
	Module string `json:"module"`
	// Location is the instrumentation point, "Entry" or "Exit".
	Location string `json:"location"`
	// Predicate is the detection predicate in DNF.
	Predicate *predicate.Predicate `json:"predicate"`
}

// predicateJSON mirrors predicate.Predicate field-for-field so bundles
// embed predicates as plain JSON objects. (Predicate's TextMarshaler
// would otherwise encode them as escaped strings, which encoding/json
// cannot decode back into the struct.)
type predicateJSON struct {
	Name    string             `json:"name"`
	Vars    []string           `json:"vars"`
	Clauses []predicate.Clause `json:"clauses"`
}

type entryJSON struct {
	ID        string         `json:"id"`
	Module    string         `json:"module"`
	Location  string         `json:"location"`
	Predicate *predicateJSON `json:"predicate"`
}

// MarshalJSON encodes the entry with the predicate as a nested object.
func (e BundleEntry) MarshalJSON() ([]byte, error) {
	out := entryJSON{ID: e.ID, Module: e.Module, Location: e.Location}
	if e.Predicate != nil {
		out.Predicate = &predicateJSON{
			Name: e.Predicate.Name, Vars: e.Predicate.Vars, Clauses: e.Predicate.Clauses,
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the nested-object form written by MarshalJSON.
func (e *BundleEntry) UnmarshalJSON(data []byte) error {
	var in entryJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	e.ID, e.Module, e.Location = in.ID, in.Module, in.Location
	e.Predicate = nil
	if in.Predicate != nil {
		e.Predicate = &predicate.Predicate{
			Name: in.Predicate.Name, Vars: in.Predicate.Vars, Clauses: in.Predicate.Clauses,
		}
	}
	return nil
}

// ParseLocation resolves the entry's location string.
func (e BundleEntry) ParseLocation() (propane.Location, error) {
	switch e.Location {
	case propane.Entry.String():
		return propane.Entry, nil
	case propane.Exit.String():
		return propane.Exit, nil
	default:
		return 0, fmt.Errorf("serve: detector %q: unknown location %q", e.ID, e.Location)
	}
}

// Validate checks structural invariants: supported version, at least
// one detector, unique non-empty IDs, parseable locations, non-nil
// predicates.
func (b *Bundle) Validate() error {
	if b.Version != BundleVersion {
		return fmt.Errorf("serve: unsupported bundle version %d (want %d)", b.Version, BundleVersion)
	}
	if len(b.Detectors) == 0 {
		return fmt.Errorf("serve: bundle has no detectors")
	}
	seen := make(map[string]bool, len(b.Detectors))
	for _, e := range b.Detectors {
		if e.ID == "" {
			return fmt.Errorf("serve: bundle entry with empty id")
		}
		if seen[e.ID] {
			return fmt.Errorf("serve: duplicate detector id %q", e.ID)
		}
		seen[e.ID] = true
		if _, err := e.ParseLocation(); err != nil {
			return err
		}
		if e.Predicate == nil {
			return fmt.Errorf("serve: detector %q has no predicate", e.ID)
		}
	}
	return nil
}

// ReadBundle decodes and validates a bundle stream.
func ReadBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("serve: decode bundle: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// LoadBundle reads and validates a bundle file.
func LoadBundle(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: open bundle: %w", err)
	}
	defer f.Close()
	b, err := ReadBundle(f)
	if err != nil {
		return nil, fmt.Errorf("serve: bundle %s: %w", path, err)
	}
	return b, nil
}

// Write serialises the bundle as stable indented JSON (the artefact is
// meant to be diffed and version-controlled).
func (b *Bundle) Write(w io.Writer) error {
	if err := b.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// WriteFile validates and encodes the bundle in memory, then replaces
// path atomically (durable.WriteFileAtomic): an invalid bundle leaves
// an existing file untouched, and a crash mid-write leaves the old
// bundle or the new one, never a torn file.
func (b *Bundle) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		return err
	}
	return durable.WriteFileAtomic(filepath.Dir(path), filepath.Base(path), buf.Bytes())
}
