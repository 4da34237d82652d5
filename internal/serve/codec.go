package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"edem/internal/durable"
)

// Sample is one sampled state vector on the wire. Finite values travel
// as ordinary JSON numbers; NaN and ±Inf — which corrupted runs
// legitimately sample, and which encoding/json rejects — travel as hex
// IEEE-754 bit patterns (durable.FormatBits), the same transport the
// campaign journal uses. Decoding accepts either form for every
// element; encoding uses hex only where JSON numbers cannot round-trip
// the value exactly.
type Sample []float64

// MarshalJSON encodes the sample, escaping non-finite values as hex
// bit-pattern strings.
func (s Sample) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('[')
	for i, v := range s {
		if i > 0 {
			buf.WriteByte(',')
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			buf.WriteByte('"')
			buf.WriteString(durable.FormatBits(v))
			buf.WriteByte('"')
			continue
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		buf.Write(b)
	}
	buf.WriteByte(']')
	return buf.Bytes(), nil
}

// UnmarshalJSON decodes a sample whose elements are JSON numbers or
// hex bit-pattern strings.
func (s *Sample) UnmarshalJSON(data []byte) error {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(Sample, len(raw))
	for i, r := range raw {
		if len(r) > 0 && r[0] == '"' {
			var hex string
			if err := json.Unmarshal(r, &hex); err != nil {
				return err
			}
			v, err := durable.ParseBits(hex)
			if err != nil {
				return fmt.Errorf("serve: %w", err)
			}
			out[i] = v
			continue
		}
		var v float64
		if err := json.Unmarshal(r, &v); err != nil {
			return err
		}
		out[i] = v
	}
	*s = out
	return nil
}

// EvalRequest is the POST /v1/evaluate body.
type EvalRequest struct {
	// Detector selects the bundle entry by ID.
	Detector string `json:"detector"`
	// Samples are the state vectors to evaluate; each must match the
	// detector's variable arity.
	Samples []Sample `json:"samples"`
	// DeadlineMS, when positive, overrides the server's default
	// per-request deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// DelayMS injects a synthetic per-request evaluation delay. Honoured
	// only when the server runs with AllowDelay (load and drain testing);
	// ignored otherwise.
	DelayMS int64 `json:"delay_ms,omitempty"`
}

// EvalResponse is the evaluation result.
type EvalResponse struct {
	Detector string `json:"detector"`
	// Verdicts holds one flag per sample: true = the predicate flagged
	// the state as failure-inducing.
	Verdicts []bool `json:"verdicts,omitempty"`
	// Alarms lists the 1-based indices of flagged samples.
	Alarms []int `json:"alarms,omitempty"`
	// Evaluated is the number of samples actually evaluated (0 when the
	// request was degraded).
	Evaluated int `json:"evaluated"`
	// Degraded is empty on a full evaluation; otherwise it names why the
	// response carries no verdicts ("breaker-open", "eval-error: ...")
	// under the fail-open policy.
	Degraded string `json:"degraded,omitempty"`
	// BundleGeneration is the monotone generation number of the bundle
	// that served the evaluation; it increments on every hot reload, so
	// clients can observe reload atomicity.
	BundleGeneration uint64 `json:"bundle_generation,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ReloadRequest is the POST /admin/reload body. An empty path re-reads
// the bundle the server was started with (the SIGHUP behaviour).
type ReloadRequest struct {
	Path string `json:"path,omitempty"`
}

// ReloadResponse reports the detectors loaded by a reload.
type ReloadResponse struct {
	Path      string   `json:"path"`
	Detectors []string `json:"detectors"`
	// Generation is the bundle generation the reload installed.
	Generation uint64 `json:"generation"`
}

// DetectorStatus is one row of GET /v1/detectors.
type DetectorStatus struct {
	ID       string `json:"id"`
	Module   string `json:"module"`
	Location string `json:"location"`
	Clauses  int    `json:"clauses"`
	Atoms    int    `json:"atoms"`
	// Breaker is the circuit state: "closed", "open" or "half-open".
	Breaker string `json:"breaker"`
	Evals   int64  `json:"evals"`
	Alarms  int64  `json:"alarms"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status    string `json:"status"` // "ok" or "draining"
	Detectors int    `json:"detectors"`
}
