package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"edem/internal/lifecycle"
	"edem/internal/mining/eval"
	"edem/internal/predicate"
	"edem/internal/serve"
	"edem/internal/stats"
	"edem/internal/telemetry"
)

// runServe is serve-binary (withLifecycle false: binary codec, no
// monitor) and serve-json-lifecycle (JSON codec, a lifecycle monitor
// tracking drift on every request, and one fsynced feedback write per
// sz.feedbackEvery evaluates on each connection). Load is a closed
// loop: each connection sends its next batch when the previous verdicts
// arrive. One evaluate request is one operation.
func runServe(ctx context.Context, r *runner, withLifecycle bool) error {
	conns := min(2, runtime.NumCPU())
	rig, release, err := setUp(ctx, r, func(ctx context.Context, dir string, parent int) (*serveRig, func(), error) {
		rig, err := r.startServe(ctx, dir, parent, withLifecycle, conns)
		if err != nil {
			return nil, nil, err
		}
		return rig, rig.close, nil
	})
	if err != nil {
		return err
	}
	defer release()

	leg, err := rig.measure(ctx, r.window, false)
	if err != nil {
		return err
	}
	rps, q := leg.sliced()
	r.samples = int(leg.ok)
	r.e2e["ops_per_s"] = rps
	r.e2e["op_p50_ms"] = q[0]
	r.e2e["op_p95_ms"] = q[1]
	r.report("serve_rps", rps, "req/s")
	r.report("serve_p50_us", 1e3*q[0], "us")
	r.report("serve_p99_us", 1e3*q[2], "us")
	if withLifecycle {
		r.report("feedback_p50_us", median(leg.feedbackUS), "us")
	}

	var traced *legStats
	if r.traced {
		if traced, err = rig.measure(ctx, r.window, true); err != nil {
			return err
		}
		if err := rig.probeLayers(traced, leg); err != nil {
			return err
		}
	}
	// The feedback journal is read back only once the server has
	// drained and the monitor closed it.
	release()
	if withLifecycle {
		rig.checkFeedback()
	}
	return nil
}

// batch is one evaluate request's samples with the verdicts the
// predicate's AST gives them, and whether each row is failure-inducing
// in the dataset it was drawn from (the feedback label).
type batch struct {
	samples []serve.Sample
	want    []bool
	failure []bool
}

// serveRig is a running in-process server and the client side that
// drives it over loopback HTTP.
type serveRig struct {
	r         *runner
	binary    bool
	conns     int
	detector  string
	exp       *exported
	prog      *predicate.Program
	reg       *telemetry.Registry
	mon       *lifecycle.Monitor
	lcDir     string
	srv       *serve.Server
	hs        *http.Server
	served    chan struct{}
	base      string
	transport *http.Transport
	client    *http.Client
	pool      []batch
	closeOnce sync.Once
	acked     int64 // feedback writes acknowledged since the server started
}

// startServe exports the bundle, starts the server on a loopback port,
// draws the request batches and warms every connection up.
func (r *runner) startServe(ctx context.Context, dir string, parent int, withLifecycle bool, conns int) (*serveRig, error) {
	exp, err := r.exportBundle(ctx, dir, parent)
	if err != nil {
		return nil, err
	}
	s := r.tr.start("serve.start", parent)
	rig := &serveRig{
		r: r, binary: !withLifecycle, conns: conns, exp: exp,
		detector: exp.bundle.Detectors[0].ID,
		reg:      telemetry.New(),
		served:   make(chan struct{}),
	}
	if rig.prog, err = predicate.Compile(exp.pred); err != nil {
		return nil, err
	}
	cfg := serve.Config{Registry: rig.reg}
	if withLifecycle {
		rig.lcDir = filepath.Join(dir, "lifecycle")
		rig.mon, err = lifecycle.NewMonitor(lifecycle.MonitorConfig{Dir: rig.lcDir, Registry: rig.reg})
		if err != nil {
			return nil, err
		}
		cfg.Monitor = rig.mon
	}
	if rig.srv, err = serve.NewServer(exp.bundle, exp.path, cfg); err != nil {
		rig.mon.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.srv.Close()
		rig.mon.Close()
		return nil, err
	}
	rig.hs = &http.Server{Handler: rig.srv.Handler()}
	go func() {
		defer close(rig.served)
		_ = rig.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	rig.base = "http://" + ln.Addr().String()
	rig.transport = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	rig.client = &http.Client{Transport: rig.transport}
	rig.drawPool()
	r.tr.end(s)

	s = r.tr.start("serve.warmup", parent)
	defer r.tr.end(s)
	if _, err := rig.run(ctx, 0, rig.r.sz.warmupRequests, false); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

// drawPool draws the request batches by seed from the rows of the
// dataset the detector was learnt from, so the alarm share is that of
// real sampled states.
func (rig *serveRig) drawPool() {
	sz, d := rig.r.sz, rig.exp.data
	rng := stats.NewRNG(rig.r.seed ^ 0x5e7e5e7e)
	rig.pool = make([]batch, sz.poolBatches)
	for i := range rig.pool {
		b := batch{
			samples: make([]serve.Sample, batchSize),
			want:    make([]bool, batchSize),
			failure: make([]bool, batchSize),
		}
		for j := range b.samples {
			in := &d.Instances[rng.Intn(d.Len())]
			b.samples[j] = append(serve.Sample(nil), in.Values...)
			b.want[j] = rig.exp.pred.Eval(in.Values)
			b.failure[j] = in.Class == eval.PositiveClass
		}
		rig.pool[i] = b
	}
}

// close stops the server, waits for it, and closes the monitor.
func (rig *serveRig) close() {
	rig.closeOnce.Do(func() {
		_ = rig.hs.Close() // the listener is loopback; nothing to drain
		<-rig.served
		rig.srv.Close()
		rig.transport.CloseIdleConnections()
		if err := rig.mon.Close(); err != nil {
			rig.r.fail(0, "lifecycle monitor close: %v", err)
		}
	})
}

// legStats merges what the connections of one measured leg saw.
type legStats struct {
	elapsed         time.Duration
	ok              int64
	slices          []hist // request latency by second of completion
	enc, wait, dec  hist   // client-side stages, traced legs only
	feedbackUS      []float64
	sheds           int64
	requestsCounted int64 // serve.requests over the leg, from the server's registry
	// serverNS and serverCount are the sum and count of the server's
	// serve.request_ns histogram over the leg.
	serverNS, serverCount int64
}

func (l *legStats) rps() float64 { return float64(l.ok) / l.elapsed.Seconds() }

// sliced returns the median over the leg's one-second slices of
// throughput and of the p50, p95 and p99 latency in milliseconds, so a
// burst of interference from outside the benchmark moves one slice
// rather than the result.
func (l *legStats) sliced() (rps float64, quantiles [3]float64) {
	width := l.elapsed.Seconds() / float64(len(l.slices))
	var rates []float64
	var per [3][]float64
	for i := range l.slices {
		h := &l.slices[i]
		rates = append(rates, float64(h.n)/width)
		for j, p := range []float64{0.50, 0.95, 0.99} {
			per[j] = append(per[j], h.quantile(p)/1e6)
		}
	}
	for j := range per {
		quantiles[j] = median(per[j])
	}
	return median(rates), quantiles
}

// measure drives every connection closed-loop for window.
func (rig *serveRig) measure(ctx context.Context, window time.Duration, traced bool) (*legStats, error) {
	requests, sheds := rig.reg.Counter("serve.requests"), rig.reg.Counter("serve.sheds")
	handler := rig.reg.Histogram("serve.request_ns")
	leg := &legStats{
		requestsCounted: -requests.Value(), sheds: -sheds.Value(),
		serverNS: -handler.Sum(), serverCount: -handler.Count(),
	}
	start := time.Now()
	stats, err := rig.run(ctx, window, 0, traced)
	if err != nil {
		return nil, err
	}
	leg.elapsed = time.Since(start)
	leg.requestsCounted += requests.Value()
	leg.sheds += sheds.Value()
	leg.serverNS += handler.Sum()
	leg.serverCount += handler.Count()
	leg.slices = make([]hist, len(stats[0].slices))
	for _, cs := range stats {
		leg.ok += cs.ok
		for i := range cs.slices {
			leg.slices[i].merge(&cs.slices[i])
		}
		leg.enc.merge(&cs.enc)
		leg.wait.merge(&cs.wait)
		leg.dec.merge(&cs.dec)
		leg.feedbackUS = append(leg.feedbackUS, cs.feedbackUS...)
	}
	return leg, nil
}

// connStats is one connection's view of a leg.
type connStats struct {
	attempted, ok  int64
	slices         []hist
	enc, wait, dec hist
	feedbackUS     []float64
	acked          int64
}

// run drives every connection until window has passed (window > 0) or
// for count requests each, and returns the per-connection statistics.
// Wrong verdicts, sheds and errors are failed operations; the run only
// aborts when a connection sees nothing but errors.
func (rig *serveRig) run(ctx context.Context, window time.Duration, count int, traced bool) ([]connStats, error) {
	// All recording memory is allocated here, before the first request.
	slices := max(int(window/time.Second), 1)
	out := make([]connStats, rig.conns)
	for c := range out {
		out[c].slices = make([]hist, slices)
	}
	errs := make([]error, rig.conns)
	var mu sync.Mutex // guards rig.r's failure record
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < rig.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = rig.conn(ctx, c, start, window, count, traced, &out[c], &mu)
		}(c)
	}
	wg.Wait()
	for _, cs := range out {
		rig.acked += cs.acked
		rig.r.attempted += cs.attempted
	}
	return out, errors.Join(errs...)
}

// conn is one closed-loop client connection.
func (rig *serveRig) conn(ctx context.Context, c int, start time.Time, window time.Duration, count int, traced bool, cs *connStats, mu *sync.Mutex) error {
	r, tr := rig.r, rig.r.tr
	var body []byte
	var resp bytes.Buffer
	consecutiveErrs := 0
	note := func(failed bool, msg string) error {
		cs.attempted++
		if !failed {
			consecutiveErrs = 0
			return nil
		}
		mu.Lock()
		r.fail(1, "%s", msg)
		mu.Unlock()
		if consecutiveErrs++; consecutiveErrs > 100 {
			return fmt.Errorf("connection %d: 100 consecutive failed requests, last: %s", c, msg)
		}
		return nil
	}
	for i := 0; ; i++ {
		if count > 0 && i >= count || count == 0 && time.Since(start) >= window {
			return nil
		}
		b := &rig.pool[(c*7919+i)%len(rig.pool)]
		t0 := time.Now()
		var err error
		if rig.binary {
			body, err = serve.EncodeBinaryRequest(body[:0], rig.detector, b.samples, 0, 0)
		} else {
			body, err = json.Marshal(serve.EvalRequest{Detector: rig.detector, Samples: b.samples})
		}
		if err != nil {
			return err
		}
		t1 := time.Now()
		code, err := rig.post(ctx, rig.base+"/v1/evaluate", rig.binary, body, &resp)
		t2 := time.Now()
		var verdicts []bool
		if err == nil && code == http.StatusOK {
			verdicts, err = rig.decode(resp.Bytes())
		}
		t3 := time.Now()
		switch {
		case err != nil:
			err = note(true, fmt.Sprintf("evaluate: %v", err))
		case code != http.StatusOK:
			err = note(true, fmt.Sprintf("evaluate: HTTP %d", code))
		case !equalVerdicts(verdicts, b.want):
			err = note(true, fmt.Sprintf("evaluate: served verdicts %v differ from the predicate's %v", verdicts, b.want))
		default:
			err = note(false, "")
			cs.ok++
			slice := 0
			if window > 0 {
				slice = min(int(len(cs.slices)*int(t3.Sub(start))/int(window)), len(cs.slices)-1)
			}
			cs.slices[slice].add(int64(t3.Sub(t0)))
			if traced {
				cs.enc.add(int64(t1.Sub(t0)))
				cs.wait.add(int64(t2.Sub(t1)))
				cs.dec.add(int64(t3.Sub(t2)))
				if i%64 == 0 {
					root := tr.record("serve.request", -1, t0, t3)
					tr.record("serve.encode", root, t0, t1)
					tr.record("serve.wait", root, t1, t2)
					tr.record("serve.decode", root, t2, t3)
				}
			}
		}
		if err != nil {
			return err
		}
		if rig.mon != nil && (i+1)%rig.r.sz.feedbackEvery == 0 {
			if err := rig.feedback(ctx, b, verdicts, traced, cs, note); err != nil {
				return err
			}
		}
	}
}

// feedback labels the first sample of the batch just served, as an
// operator's golden-run check would, and waits for the fsynced ack.
func (rig *serveRig) feedback(ctx context.Context, b *batch, verdicts []bool, traced bool, cs *connStats, note func(bool, string) error) error {
	alarm := len(verdicts) > 0 && verdicts[0]
	body, err := json.Marshal(serve.FeedbackRequest{
		Detector: rig.detector,
		Alarm:    alarm,
		Outcome:  string(outcome(alarm, b.failure[0])),
		Source:   string(lifecycle.SourceGolden),
		Sample:   b.samples[0],
	})
	if err != nil {
		return err
	}
	var resp bytes.Buffer
	t0 := time.Now()
	code, err := rig.post(ctx, rig.base+"/v1/feedback", false, body, &resp)
	t1 := time.Now()
	var fr serve.FeedbackResponse
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(resp.Bytes(), &fr)
	}
	switch {
	case err != nil:
		return note(true, fmt.Sprintf("feedback: %v", err))
	case code != http.StatusOK || !fr.Recorded:
		return note(true, fmt.Sprintf("feedback: HTTP %d, recorded %v", code, fr.Recorded))
	}
	cs.acked++
	cs.feedbackUS = append(cs.feedbackUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
	if traced {
		rig.r.tr.record("lifecycle.feedback", -1, t0, t1)
	}
	return note(false, "")
}

// outcome labels a verdict against the sampled row's ground truth.
func outcome(alarm, failure bool) lifecycle.Outcome {
	switch {
	case alarm && failure:
		return lifecycle.OutcomeTrueAlarm
	case alarm:
		return lifecycle.OutcomeFalseAlarm
	case failure:
		return lifecycle.OutcomeMissedFailure
	default:
		return lifecycle.OutcomeBenign
	}
}

// post sends one request and reads the whole response body into out.
func (rig *serveRig) post(ctx context.Context, url string, binary bool, body []byte, out *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if binary {
		req.Header.Set("Content-Type", serve.ContentTypeBinary)
	} else {
		req.Header.Set("Content-Type", serve.ContentTypeJSON)
	}
	res, err := rig.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	out.Reset()
	if _, err := io.Copy(out, res.Body); err != nil {
		return 0, err
	}
	return res.StatusCode, nil
}

// decode extracts the verdicts from an evaluate response in the rig's
// codec.
func (rig *serveRig) decode(data []byte) ([]bool, error) {
	if rig.binary {
		resp, _, err := serve.DecodeBinaryResponse(data)
		if err != nil {
			return nil, err
		}
		return resp.Verdicts, nil
	}
	var resp serve.EvalResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	return resp.Verdicts, nil
}

func equalVerdicts(got, want []bool) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// checkFeedback reads the feedback journal back: every acknowledged
// record must be there, none torn, each a valid label of a sample of
// the detector's arity. A shortfall fails the missing writes.
func (rig *serveRig) checkFeedback() {
	r, acked := rig.r, rig.acked
	recs, torn, err := lifecycle.ReadFeedback(filepath.Join(rig.lcDir, lifecycle.FeedbackName))
	if rig.r.traced {
		r.layer["lifecycle.records"] = float64(len(recs))
	}
	switch {
	case err != nil:
		r.fail(max(acked, 1), "feedback journal: %v", err)
	case torn != 0 || int64(len(recs)) != acked:
		r.fail(max(acked-int64(len(recs)), 1), "feedback journal holds %d records (%d torn), %d were acknowledged", len(recs), torn, acked)
	default:
		arity := len(rig.exp.pred.Vars)
		for _, rec := range recs {
			vals, err := lifecycle.DecodeState(rec.State)
			if rec.Detector != rig.detector || err != nil || len(vals) != arity {
				r.fail(1, "feedback record %+v does not match what was sent", rec)
			}
		}
	}
}

// probeLayers fills the serve workloads' per-layer metrics. The
// request stages are means over the traced leg, so they add up: a
// request is encode + wait + decode on the client, and wait is the
// server's own time in its evaluate handler (its serve.request_ns
// histogram) plus transport. The predicate and lifecycle calls behind a
// request are timed in process on the leg's own batches.
func (rig *serveRig) probeLayers(traced, untraced *legStats) error {
	r, tr, L := rig.r, rig.r.tr, rig.r.layer
	const reps = 16
	root := tr.start("serve.probe", -1)
	defer tr.end(root)
	var evals, observe []float64
	var mon *lifecycle.Monitor
	if rig.mon != nil {
		var err error
		mon, err = lifecycle.NewMonitor(lifecycle.MonitorConfig{Dir: filepath.Join(r.scratch, "probe-lifecycle"), Registry: telemetry.New()})
		if err != nil {
			return err
		}
		defer mon.Close()
	}
	for i := range rig.pool {
		b := &rig.pool[i]
		vals := make([][]float64, len(b.samples))
		for j := range b.samples {
			vals[j] = b.samples[j]
		}
		for k := 0; k < reps; k++ {
			s := tr.start("predicate.eval", root)
			t0 := time.Now()
			for _, v := range vals {
				rig.prog.Eval(v)
			}
			evals = append(evals, micros(time.Since(t0)))
			tr.end(s)

			if mon != nil {
				s = tr.start("lifecycle.observe", root)
				t0 = time.Now()
				mon.ObserveLive(rig.detector, vals, b.want)
				observe = append(observe, micros(time.Since(t0)))
				tr.end(s)
			}
		}
	}
	L["serve.encode_us"] = traced.enc.mean() / 1e3
	L["serve.wait_us"] = traced.wait.mean() / 1e3
	L["serve.decode_us"] = traced.dec.mean() / 1e3
	L["serve.server_compute_us"] = float64(traced.serverNS) / float64(traced.serverCount) / 1e3
	L["serve.transport_us"] = L["serve.wait_us"] - L["serve.server_compute_us"]
	L["serve.requests"] = float64(traced.requestsCounted)
	L["serve.sheds"] = float64(traced.sheds)
	L["predicate.eval_us"] = median(evals)
	L["predicate.atoms"] = float64(rig.prog.Atoms())
	if mon != nil {
		L["lifecycle.observe_us"] = median(observe)
		L["lifecycle.feedback_us"] = median(traced.feedbackUS)
	}
	// The share of the connections' time spent inside successful
	// evaluate requests; the rest is feedback writes, failed requests
	// and the client loop.
	var busy int64
	for i := range traced.slices {
		busy += traced.slices[i].sum
	}
	L["trace.coverage"] = float64(busy) / (traced.elapsed.Seconds() * 1e9 * float64(rig.conns))
	L["trace.overhead_frac"] = untraced.rps()/traced.rps() - 1
	return nil
}
