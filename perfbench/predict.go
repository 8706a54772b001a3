package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/model"
)

// The predict-mixed traffic: independent devices posting on a schedule
// (open loop) through at most `senders` client connections.
const (
	baseRate = 200.0 // req/s at which the latency metrics are read
	senders  = 2     // client connections, the cores the benchmark targets
	slo      = 50 * time.Millisecond
	modelID  = "default"
	// traceHeader carries "trace,parent" span ids to the server-side tap.
	traceHeader = "X-Perfbench-Trace"
)

// ladder holds the offered rates, base rate first; max_rps_slo is the
// highest rate that meets the SLO.
var ladder = []float64{baseRate, 100, 400, 800}

// errMismatch marks a response that differs from its set-up reference.
var errMismatch = errors.New("response differs from the set-up reference")

// answer is the reference a 200 response must reproduce bit-for-bit.
type answer struct {
	scores []uint64
	labels []int
}

// predictSetup is the served model, its server and the request pool with
// each body's reference answer.
type predictSetup struct {
	srv    *iotml.Server
	hs     *httpServer
	url    string
	client *http.Client
	art    *iotml.Artifact
	artRaw []byte
	bodies predictBodies
	rows   struct{ single, batch [][][]float64 }
	refs   struct{ single, batch []answer }
}

// modelSeed fixes the served model. Scoring cost grows with the number of
// kernel blocks the fit selects, which varies from 2 to 18 between
// training sets, so a model fitted per seed would make the serving numbers
// depend on the seed; --seed varies the traffic instead.
const modelSeed = 1

// setupPredict fits the served artifact from the fit-solve inputs, starts
// iotml.Serve with default options on a loopback listener, and computes
// every body's answer with a Predictor. wrap, when non-nil, wraps the
// server's handler (the traced run's tap).
func setupPredict(ctx context.Context, seed int64, wrap func(http.Handler) http.Handler) (*predictSetup, error) {
	w := fitWorkloads["fit-solve"]
	csv, err := fitCSV(modelSeed, w.n, w.noise)
	if err != nil {
		return nil, err
	}
	out, _, err := pipeline(ctx, csv, w.options(0, nil, nil), nil)
	if err != nil {
		return nil, fmt.Errorf("fitting the served model: %w", err)
	}
	ps := &predictSetup{artRaw: out.art}
	if ps.art, err = model.Load(bytes.NewReader(out.art)); err != nil {
		return nil, err
	}
	pred, err := iotml.NewPredictor(ps.art)
	if err != nil {
		return nil, err
	}
	if ps.bodies, err = makeBodies(seed, w.noise); err != nil {
		return nil, err
	}
	refOf := func(body []byte) ([][]float64, answer, error) {
		var req iotml.PredictRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, answer{}, err
		}
		scores, err := pred.Scores(req.Instances)
		if err != nil {
			return nil, answer{}, err
		}
		a := answer{labels: model.Labels(scores)}
		for _, s := range scores {
			a.scores = append(a.scores, math.Float64bits(s))
		}
		return req.Instances, a, nil
	}
	for _, b := range ps.bodies.single {
		rows, a, err := refOf(b)
		if err != nil {
			return nil, err
		}
		ps.rows.single, ps.refs.single = append(ps.rows.single, rows), append(ps.refs.single, a)
	}
	for _, b := range ps.bodies.batch {
		rows, a, err := refOf(b)
		if err != nil {
			return nil, err
		}
		ps.rows.batch, ps.refs.batch = append(ps.rows.batch, rows), append(ps.refs.batch, a)
	}

	reg := iotml.NewServeRegistry()
	if err := reg.Load(modelID, ps.art); err != nil {
		return nil, err
	}
	if ps.srv, err = iotml.Serve(ctx, reg); err != nil {
		return nil, err
	}
	h := ps.srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	if ps.hs, err = startHTTP(h); err != nil {
		ps.srv.Close()
		return nil, err
	}
	ps.url = "http://" + ps.hs.addr + "/v1/models/" + modelID + "/predict"
	ps.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	return ps, nil
}

func (ps *predictSetup) close() {
	ps.client.CloseIdleConnections()
	ps.hs.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ps.srv.Shutdown(ctx); err != nil {
		ps.srv.Close()
	}
}

func (ps *predictSetup) ref(p planned) answer {
	if p.batch {
		return ps.refs.batch[p.body]
	}
	return ps.refs.single[p.body]
}

func (a answer) check(scores []float64, labels []int) error {
	if len(scores) != len(a.scores) || len(labels) != len(a.labels) {
		return errMismatch
	}
	for i, s := range scores {
		if math.Float64bits(s) != a.scores[i] || labels[i] != a.labels[i] {
			return errMismatch
		}
	}
	return nil
}

// post sends one planned request over HTTP and checks the answer. With
// trace set, the request carries its span ids to the server-side tap.
func (ps *predictSetup) post(p planned, trace, parent int) error {
	body := ps.bodies.single[p.body]
	if p.batch {
		body = ps.bodies.batch[p.body]
	}
	req, err := http.NewRequest(http.MethodPost, ps.url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != 0 {
		req.Header.Set(traceHeader, strconv.Itoa(trace)+","+strconv.Itoa(parent))
	}
	resp, err := ps.client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var pr iotml.PredictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		return err
	}
	return ps.ref(p).check(pr.Scores, pr.Labels)
}

// direct scores one planned request through Server.ScoreBatch, skipping
// HTTP and JSON.
func (ps *predictSetup) direct(p planned) error {
	rows := ps.rows.single[p.body]
	if p.batch {
		rows = ps.rows.batch[p.body]
	}
	scores, err := ps.srv.ScoreBatch(modelID, rows)
	if err != nil {
		return err
	}
	return ps.ref(p).check(scores, model.Labels(scores))
}

// phase is one open-loop phase at a fixed rate.
type phase struct {
	rate  float64
	plan  []planned
	ts    []timing
	alloc uint64  // bytes allocated by the whole process during the phase
	rss   float64 // RSS high-water mark of the phase, MB
}

func (ph phase) failures() int {
	n := 0
	for _, t := range ph.ts {
		if t.err != nil {
			n++
		}
	}
	return n
}

// latencies returns the latency in ms of the requests of one class (or of
// every request when class is nil).
func (ph phase) latencies(batch *bool) []float64 {
	var out []float64
	for i, t := range ph.ts {
		if batch == nil || ph.plan[i].batch == *batch {
			out = append(out, ms(t.latency()))
		}
	}
	return out
}

// meetsSLO reports whether the phase kept p99 within the SLO with no
// failures and no growing backlog.
func (ph phase) meetsSLO() bool {
	if len(ph.ts) == 0 || ph.failures() > 0 {
		return false
	}
	return percentile(ph.latencies(nil), 99) <= ms(slo) && !ph.growing()
}

// growing reports a backlog that grows over the phase: the last quarter's
// median latency more than twice the first quarter's.
func (ph phase) growing() bool {
	lat := ph.latencies(nil)
	q := len(lat) / 4
	if q == 0 {
		return false
	}
	return median(lat[len(lat)-q:]) > 2*median(lat[:q])
}

// phaseSpec is one phase to run: do performs request i of the phase.
type phaseSpec struct {
	rate float64
	d    time.Duration
	do   func(i int, p planned) error
}

// phaseCount is how many requests a phase of d at rate req/s offers.
func phaseCount(rate float64, d time.Duration) int { return max(1, int(rate*d.Seconds())) }

// runPhase runs sp as the idx-th phase of a run.
func runPhase(seed int64, idx int, sp phaseSpec) (phase, error) {
	count := phaseCount(sp.rate, sp.d)
	ph := phase{rate: sp.rate, plan: makePlan(seed, idx, count)}
	interval := time.Duration(float64(time.Second) / sp.rate)
	if err := resetPeakRSS(); err != nil {
		return ph, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph.ts = openLoop(time.Now().Add(time.Millisecond), count, interval, senders, func(i int) error { return sp.do(i, ph.plan[i]) })
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	var err error
	ph.rss, err = peakRSS()
	return ph, err
}

var (
	singleClass = false
	batchClass  = true
)

// runPredictWorkload measures predict-mixed. Untraced, it walks the rate
// ladder (the base rate longest) and reads the end-to-end metrics at the
// base rate. Traced, it runs the base rate untraced, then traced through
// the server-side tap, then straight into Server.ScoreBatch.
func runPredictWorkload(ctx context.Context, r *run, seed int64, d time.Duration, traced bool) error {
	var tr *tracer
	var tp *tap
	var wrap func(http.Handler) http.Handler
	if traced {
		tr = newTracer()
		tp = &tap{tr: tr, ids: traceIDs, name: func(*http.Request) string { return "serve.handler" }}
		wrap = func(h http.Handler) http.Handler {
			tapped := tp.wrap(h)
			return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
				if req.Header.Get(traceHeader) == "" {
					h.ServeHTTP(rw, req)
					return
				}
				tapped.ServeHTTP(rw, req)
			})
		}
	}
	ps, err := setupRepeated(r, traced, func() (*predictSetup, error) { return setupPredict(ctx, seed, wrap) },
		func(a, b *predictSetup) bool { return bytes.Equal(a.artRaw, b.artRaw) }, (*predictSetup).close)
	if err != nil {
		return err
	}
	defer ps.close()
	viaHTTP := func(i int, p planned) error { return ps.post(p, 0, 0) }
	var phases []phase
	runAll := func(specs ...phaseSpec) error {
		for _, sp := range specs {
			ph, err := runPhase(seed, len(phases), sp)
			if err != nil {
				return err
			}
			phases = append(phases, ph)
			r.Attempted += len(ph.ts)
			r.Failed += ph.failures()
		}
		return nil
	}
	// Warm-up: connections, server workers and scratch buffers; checked
	// and counted, not timed.
	warm := phaseSpec{baseRate, d / 20, viaHTTP}
	if !traced {
		specs := []phaseSpec{warm}
		for _, rate := range ladder {
			share := 0.15
			if rate == baseRate {
				share = 0.55
			}
			specs = append(specs, phaseSpec{rate, time.Duration(float64(d) * share), viaHTTP})
		}
		if err := runAll(specs...); err != nil {
			return err
		}
		base := phases[1]
		r.setOp(base.latencies(nil), float64(base.alloc)/float64(len(base.ts))/1024, []float64{base.rss})
		predictFamily(r, phases[1:])
		return nil
	}

	td := d * 4 / 10
	spanIDs := make([]int, phaseCount(baseRate, td))
	for i := range spanIDs {
		spanIDs[i] = tr.reserve()
	}
	if err := runAll(warm, phaseSpec{baseRate, d * 3 / 10, viaHTTP}); err != nil {
		return err
	}
	before, _ := ps.srv.SnapshotModel(modelID)
	if err := runAll(phaseSpec{baseRate, td, func(i int, p planned) error { return ps.post(p, spanIDs[i], spanIDs[i]) }}); err != nil {
		return err
	}
	after, _ := ps.srv.SnapshotModel(modelID)
	if err := runAll(phaseSpec{baseRate, d * 3 / 10, func(i int, p planned) error { return ps.direct(p) }}); err != nil {
		return err
	}
	plain, tracedPh, directPh := phases[1], phases[2], phases[3]
	for i, t := range tracedPh.ts {
		tr.record(spanIDs[i], 0, spanIDs[i], "client.request", t.due, t.done)
	}
	r.tracer = tr
	serveLayers(r, tr.snapshot(), spanIDs, plain, tracedPh, directPh, before, after)

	var buf bytes.Buffer
	var saves []time.Duration
	for range 5 {
		buf.Reset()
		t0 := time.Now()
		if err := ps.art.Save(&buf); err != nil {
			return err
		}
		saves = append(saves, time.Since(t0))
	}
	r.set("model.save_ms", median(msAll(saves)), "ms")
	r.set("model.artifact_kb", float64(buf.Len())/1024, "KB")
	var rows [][]float64
	for _, rs := range ps.rows.batch {
		rows = append(rows, rs...)
	}
	if err := modelCost(r, ps.artRaw, rows); err != nil {
		return err
	}
	zeroFit(r)
	return nil
}

// traceIDs reads the span ids a traced request carries.
func traceIDs(r *http.Request) (parent, trace int) {
	tp, pp, _ := strings.Cut(r.Header.Get(traceHeader), ",")
	trace, _ = strconv.Atoi(tp)
	parent, _ = strconv.Atoi(pp)
	return parent, trace
}

// predictFamily prints the predict-specific metrics of the ladder.
func predictFamily(r *run, ladder []phase) {
	base := ladder[0]
	for _, c := range []struct {
		name  string
		class *bool
	}{{"single", &singleClass}, {"batch", &batchClass}} {
		lat := base.latencies(c.class)
		r.note(c.name+"_p50_ms", median(lat), "ms", fmt.Sprintf("n=%d at %.0f req/s", len(lat), base.rate))
		r.note(c.name+"_p99_ms", percentile(lat, 99), "ms", fmt.Sprintf("n=%d", len(lat)))
	}
	best := 0.0
	for _, ph := range ladder {
		all := ph.latencies(nil)
		worst, _ := lateness(ph.ts)
		r.note(fmt.Sprintf("rate_%.0f_p99_ms", ph.rate), percentile(all, 99), "ms",
			fmt.Sprintf("n=%d failed=%d growing_backlog=%v queued_at_end=%d gen_late_max=%.2fms meets_slo=%v",
				len(all), ph.failures(), ph.growing(), backlog(ph.ts, ph.ts[len(ph.ts)-1].due), ms(worst), ph.meetsSLO()))
		if ph.meetsSLO() && ph.rate > best {
			best = ph.rate
		}
	}
	r.note("max_rps_slo", best, "req/s", fmt.Sprintf("highest ladder rate with p99 <= %v, no failures, no growing backlog", slo))
}

// serveLayers derives the serve and generator per-layer metrics.
func serveLayers(r *run, spans []span, ids []int, plain, traced, direct phase, before, after iotml.ServeMetrics) {
	handler := map[int]time.Duration{}
	for _, s := range named(spans, "serve.handler") {
		handler[s.Trace] = s.End - s.Start
	}
	for _, c := range []struct {
		name  string
		class bool
	}{{"single", false}, {"batch", true}} {
		var h, tr, dir []float64
		for i, t := range traced.ts {
			if traced.plan[i].batch != c.class {
				continue
			}
			hd, ok := handler[ids[i]]
			if !ok {
				continue
			}
			h = append(h, ms(hd))
			tr = append(tr, ms(t.latency()-hd))
		}
		for i, t := range direct.ts {
			if direct.plan[i].batch == c.class {
				dir = append(dir, ms(t.latency()))
			}
		}
		r.set("serve.handler_"+c.name+"_p50_ms", median(h), "ms")
		r.set("serve.handler_"+c.name+"_p99_ms", percentile(h, 99), "ms")
		r.set("serve.transport_"+c.name+"_ms", median(tr), "ms")
		r.set("serve.scorebatch_"+c.name+"_ms", median(dir), "ms")
	}
	batches := float64(after.Batches - before.Batches)
	r.set("serve.batch_size_mean", ratio(float64(after.Instances-before.Instances), batches), "instances")
	r.set("serve.batch_us_mean", ratio(float64(after.TotalBatchMicros-before.TotalBatchMicros), batches), "us")
	r.set("serve.shed", float64(after.Shed-before.Shed), "count")
	r.set("serve.alloc_kb_per_req", float64(plain.alloc)/float64(len(plain.ts))/1024, "KB")
	worst, frac := lateness(append(append([]timing(nil), plain.ts...), traced.ts...))
	r.set("gen.late_ms_max", ms(worst), "ms")
	r.set("gen.late_frac", frac, "ratio")
	r.set("trace.overhead_ms", median(traced.latencies(&singleClass))-median(plain.latencies(&singleClass)), "ms")
}

// zeroServe reports the serving layers as idle: the fit workloads never
// reach them.
func zeroServe(r *run) {
	for _, c := range []string{"single", "batch"} {
		r.set("serve.handler_"+c+"_p50_ms", 0, "ms")
		r.set("serve.handler_"+c+"_p99_ms", 0, "ms")
		r.set("serve.transport_"+c+"_ms", 0, "ms")
		r.set("serve.scorebatch_"+c+"_ms", 0, "ms")
	}
	r.set("serve.batch_size_mean", 0, "instances")
	r.set("serve.batch_us_mean", 0, "us")
	r.set("serve.shed", 0, "count")
	r.set("serve.alloc_kb_per_req", 0, "KB")
	r.set("gen.late_ms_max", 0, "ms")
	r.set("gen.late_frac", 0, "ratio")
}
