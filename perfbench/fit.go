package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"repro"
	"repro/internal/distsearch"
)

// fitWorkload is one closed-loop fit workload: one fit at a time, each
// from CSV bytes to saved artifact bytes through the public API.
type fitWorkload struct {
	n, noise int // training rows; pure-noise features (d = 6 + noise)
	strategy iotml.SearchStrategy
	seedMaxK int  // bound on the rough-set seed block (0: the default 2)
	dist     bool // score candidates on a fresh two-worker fleet per fit
}

// The search workloads score the whole lower cone of a one-feature seed
// block over d=8 features: Bell(7) = 877 candidates whatever the data.
// A greedy search would be closer to what users run, but the work it does
// depends on the path the data leads it down (75 to 2588 candidates over
// the seeds 1..12 at n=120, d=18), so its fit time says more about the
// seed than about the code.
var fitWorkloads = map[string]fitWorkload{
	"fit-solve":  {n: 600, noise: 12, strategy: iotml.SearchChain},
	"fit-search": {n: 120, noise: 2, strategy: iotml.SearchExhaustive, seedMaxK: 1},
	"fit-dist":   {n: 200, noise: 2, strategy: iotml.SearchExhaustive, seedMaxK: 1, dist: true},
}

// csvSchema is what `iotml fit -data` uses by default.
var csvSchema = iotml.Schema{Label: "label"}

// options mirrors the `iotml fit -data` defaults (RBF γ=1, sum combiner,
// ridge λ=1e-2, 4-fold CV, exact backend) with the workload's strategy
// and seed bound. With workers set, candidates are scored on that fleet.
func (w fitWorkload) options(parallelism int, workers []string, client *http.Client) []iotml.Option {
	opts := []iotml.Option{
		iotml.WithStrategy(w.strategy),
		iotml.WithKernelFamily(iotml.RBFKernels(1)),
		iotml.WithCombiner(iotml.CombineSum),
		iotml.WithLearner(iotml.RidgeLearner(1e-2)),
		iotml.WithFolds(0),
		iotml.WithParallelism(parallelism),
		iotml.WithBackend(iotml.Float64Backend),
	}
	if w.seedMaxK > 0 {
		opts = append(opts, iotml.WithSeedMaxK(w.seedMaxK))
	}
	if len(workers) > 0 {
		opts = append(opts, iotml.WithDistributedWorkers(iotml.DistOptions{
			Workers:   workers,
			Spec:      iotml.DistSpec{Learner: "ridge", Kernel: "rbf", Gamma: 1, Combiner: "sum", Backend: "exact"},
			Transport: &distsearch.HTTPTransport{Client: client},
		}))
	}
	return opts
}

// fitOutcome is what a fit is checked on: the selected partition, the
// bits of its score and the SHA-256 of the saved artifact.
type fitOutcome struct {
	best  string
	score uint64
	sha   [32]byte
	art   []byte
	evals int // FitResult.Evaluations: configurations scored
}

func (o fitOutcome) matches(ref fitOutcome) bool {
	return o.best == ref.best && o.score == ref.score && o.sha == ref.sha
}

// fitEvents collects a fit's progress stream: the stage boundaries the
// per-layer spans are cut at, and the candidates it evaluated.
type fitEvents struct {
	seedAt, searchEnd time.Time
	cands             []iotml.Partition
	scores            []float64
	retries           int
}

func (f *fitEvents) observe(ev iotml.Event) {
	switch ev.Kind {
	case iotml.EventSeedSelected:
		f.seedAt = ev.Time
	case iotml.EventCandidateEvaluated:
		f.cands = append(f.cands, ev.Partition)
		f.scores = append(f.scores, ev.Score)
	case iotml.EventSearchFinished:
		f.searchEnd = ev.Time
	case iotml.EventShardRetried, iotml.EventShardRedispatched:
		f.retries++
	}
}

// fitStamps are the call boundaries of one pipeline run: before ReadCSV,
// after Standardize, after Fit, after Artifact, after Save.
type fitStamps [5]time.Time

// pipeline is the operation the fit workloads time: ReadCSV + Standardize
// → Fit → Artifact → Save. ev, when non-nil, receives the progress stream.
func pipeline(ctx context.Context, csv []byte, opts []iotml.Option, ev *fitEvents) (fitOutcome, fitStamps, error) {
	var st fitStamps
	st[0] = time.Now()
	d, err := iotml.ReadCSV(bytes.NewReader(csv), csvSchema)
	if err != nil {
		return fitOutcome{}, st, fmt.Errorf("reading CSV: %w", err)
	}
	d.Standardize()
	st[1] = time.Now()
	if ev != nil {
		opts = append(opts[:len(opts):len(opts)], iotml.WithProgress(ev.observe))
	}
	res, err := iotml.Fit(ctx, d, opts...)
	st[2] = time.Now()
	if err != nil {
		return fitOutcome{}, st, fmt.Errorf("fit: %w", err)
	}
	art, err := res.Artifact()
	st[3] = time.Now()
	if err != nil {
		return fitOutcome{}, st, fmt.Errorf("artifact: %w", err)
	}
	var buf bytes.Buffer
	err = art.Save(&buf)
	st[4] = time.Now()
	if err != nil {
		return fitOutcome{}, st, fmt.Errorf("save: %w", err)
	}
	return fitOutcome{best: res.Best.String(), score: math.Float64bits(res.Score), sha: sha256.Sum256(buf.Bytes()), art: buf.Bytes(), evals: res.Evaluations}, st, nil
}

// fitSetup is everything a fit workload builds before it measures.
type fitSetup struct {
	csv    []byte
	ref    fitOutcome
	client *http.Client
}

// setup generates the training CSV and fits the Parallelism=1 in-process
// reference every timed fit must reproduce bit-for-bit. fit-dist is held
// to the same in-process reference (the distributed search is specified
// to select bit-identically), and its set-up also brings a fleet up and
// down once to check the workers answer.
func (w fitWorkload) setup(ctx context.Context, seed int64) (*fitSetup, error) {
	csv, err := fitCSV(seed, w.n, w.noise)
	if err != nil {
		return nil, err
	}
	s := &fitSetup{csv: csv, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: fleetSize}}}
	s.ref, _, err = pipeline(ctx, csv, w.options(1, nil, nil), nil)
	if err != nil {
		return nil, fmt.Errorf("reference fit: %w", err)
	}
	if w.dist {
		fl, err := startFleet(nil)
		if err != nil {
			return nil, err
		}
		err = fl.healthy(s.client)
		fl.stop()
		s.client.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// fitLoop is what one phase of timed fits measured.
type fitLoop struct {
	times             []time.Duration
	rss               []float64 // RSS high-water mark of each fit, MB
	alloc             uint64
	attempted, failed int
	last              fitOutcome
	events            []*fitEvents // traced phases only, one per fit
	roots             []int        // root span (and trace id) per traced fit
}

// loop runs fits back to back for the given duration (at least minOps).
// A fit-dist fit gets a fresh fleet, started and stopped outside the timed
// interval, so no fit is answered from a previous fit's worker caches.
// With tr set, every fit is traced; dt then taps the fleet's requests.
func (w fitWorkload) loop(ctx context.Context, s *fitSetup, d time.Duration, tr *tracer, dt *distTap) (fitLoop, error) {
	const minOps = 3
	var out fitLoop
	start := time.Now()
	for len(out.times) < minOps || time.Since(start) < d {
		var fl *fleet
		var workers []string
		if w.dist {
			var wrap func(http.Handler) http.Handler
			if dt != nil {
				wrap = dt.wrap
			}
			var err error
			if fl, err = startFleet(wrap); err != nil {
				return out, err
			}
			workers = fl.addrs()
		}
		var ev *fitEvents
		var root, search int
		if tr != nil {
			ev = &fitEvents{}
			root, search = tr.reserve(), tr.reserve()
			if dt != nil {
				dt.trace.Store(int64(root))
				dt.search.Store(int64(search))
			}
		}
		opts := w.options(0, workers, s.client)
		if err := resetPeakRSS(); err != nil {
			return out, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		o, st, err := pipeline(ctx, s.csv, opts, ev)
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		rss, rerr := peakRSS()
		if rerr != nil {
			return out, rerr
		}
		out.rss = append(out.rss, rss)
		if fl != nil {
			fl.stop()
			s.client.CloseIdleConnections()
		}
		out.attempted++
		out.times = append(out.times, el)
		out.alloc += m1.TotalAlloc - m0.TotalAlloc
		if err != nil || !o.matches(s.ref) {
			out.failed++
			continue
		}
		out.last = o
		if tr != nil {
			recordFitSpans(tr, root, search, st, ev)
			out.events = append(out.events, ev)
			out.roots = append(out.roots, root)
		}
	}
	return out, nil
}

// recordFitSpans cuts one traced fit into layer spans: the call
// boundaries the benchmark timed, and inside Fit the seed and search
// stages delimited by the progress stream.
func recordFitSpans(tr *tracer, root, search int, st fitStamps, ev *fitEvents) {
	tr.record(root, 0, root, "fit", st[0], st[4])
	tr.record(0, root, root, "dataset.read", st[0], st[1])
	fit := tr.record(0, root, root, "core.fit", st[1], st[2])
	tr.record(0, fit, root, "rough.seed", st[1], ev.seedAt)
	tr.record(search, fit, root, "mkl.search", ev.seedAt, ev.searchEnd)
	tr.record(0, root, root, "core.artifact", st[2], st[3])
	tr.record(0, root, root, "model.save", st[3], st[4])
}

// fitFamily prints the fit-specific metrics of a timed phase.
func fitFamily(r *run, l fitLoop) {
	secs := make([]float64, len(l.times))
	for i, t := range l.times {
		secs[i] = t.Seconds()
	}
	tl := tailOf(secs)
	r.note("fit_s_p50", median(secs), "s", fmt.Sprintf("n=%d", len(secs)))
	r.note("fit_s_tail", tl.Value, "s", fmt.Sprintf("p%.1f, %d samples beyond, n=%d", tl.Pct, tl.Beyond, tl.N))
	r.note("fit_alloc_mb", float64(l.alloc)/float64(l.attempted)/(1<<20), "MB", "")
}

// runFitWorkload measures one fit workload. Untraced, it reports the
// end-to-end metrics; traced, it splits the time between an untraced and a
// traced phase (their difference is the tracing overhead), then replays
// the first traced fit's candidate stream layer by layer.
func runFitWorkload(ctx context.Context, r *run, w fitWorkload, seed int64, d time.Duration, traced bool) error {
	s, err := setupRepeated(r, traced, func() (*fitSetup, error) { return w.setup(ctx, seed) },
		func(a, b *fitSetup) bool { return a.ref.matches(b.ref) && a.ref.evals == b.ref.evals }, nil)
	if err != nil {
		return err
	}
	if !traced {
		l, err := w.loop(ctx, s, d, nil, nil)
		if err != nil {
			return err
		}
		r.Attempted, r.Failed = l.attempted, l.failed
		r.setOp(msAll(l.times), float64(l.alloc)/float64(l.attempted)/1024, l.rss)
		fitFamily(r, l)
		return nil
	}

	plain, err := w.loop(ctx, s, d/2, nil, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	var dt *distTap
	if w.dist {
		dt = newDistTap(tr)
	}
	tl, err := w.loop(ctx, s, d/2, tr, dt)
	if err != nil {
		return err
	}
	r.Attempted, r.Failed = plain.attempted+tl.attempted, plain.failed+tl.failed
	r.tracer = tr
	if len(tl.events) == 0 {
		return fmt.Errorf("no traced fit matched its reference")
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	layer := func(name string) float64 { return median(msAll(selfByTrace(spans, self, name))) }
	r.set("dataset.read_ms", layer("dataset.read"), "ms")
	r.set("rough.seed_ms", layer("rough.seed"), "ms")
	r.set("mkl.search_ms", layer("mkl.search"), "ms")
	r.set("core.artifact_ms", layer("core.artifact"), "ms")
	r.set("model.save_ms", layer("model.save"), "ms")
	r.set("model.artifact_kb", float64(len(tl.last.art))/1024, "KB")
	r.set("trace.overhead_ms", ms(medianDur(tl.times)-medianDur(plain.times)), "ms")

	first := tl.events[0]
	for _, ev := range tl.events[1:] {
		if len(ev.cands) != len(first.cands) {
			r.Failed++ // the candidate stream is specified to be deterministic
		}
	}
	// The progress stream carries only the candidates of the canonical
	// sequential order, so what a fit scored is FitResult.Evaluations.
	cands := float64(tl.last.evals)
	r.set("mkl.candidates", cands, "count")
	r.set("mkl.inproc_candidates", float64(s.ref.evals), "count")
	r.set("mkl.useful_frac", ratio(float64(s.ref.evals), cands), "ratio")

	walls := make([]time.Duration, len(tl.events))
	for i, ev := range tl.events {
		walls[i] = ev.searchEnd.Sub(ev.seedAt)
	}
	searchWall := medianDur(walls)

	rp, err := replay(s.csv, first)
	if err != nil {
		return err
	}
	r.Failed += rp.mismatches
	rp.report(r, searchWall)

	distLayers(r, spans, tl, walls, dt)

	rows, err := trainingRows(s.csv)
	if err != nil {
		return err
	}
	if err := modelCost(r, tl.last.art, rows); err != nil {
		return err
	}
	zeroServe(r)
	return nil
}

// distLayers reports the fleet's per-layer numbers from the worker-side
// spans of the traced fits (all zero when the workload has no fleet).
func distLayers(r *run, spans []span, tl fitLoop, walls []time.Duration, dt *distTap) {
	fits := float64(len(tl.events))
	var installs, shards int
	var shardMS []float64
	perFitInstall := map[int]time.Duration{}
	perFitShard := map[int]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "distsearch.install":
			installs++
			perFitInstall[s.Trace] += s.End - s.Start
		case "distsearch.shard":
			shards++
			shardMS = append(shardMS, ms(s.End-s.Start))
			perFitShard[s.Trace] += s.End - s.Start
		}
	}
	var installMS, busy []float64
	for i, trace := range tl.roots {
		installMS = append(installMS, ms(perFitInstall[trace]))
		busy = append(busy, ratio(float64(perFitShard[trace]), float64(walls[i])*fleetSize))
	}
	var wire float64
	if dt != nil {
		wire = float64(dt.bytes.Load()) / fits / 1024
	}
	retries := 0
	for _, ev := range tl.events {
		retries += ev.retries
	}
	r.set("distsearch.installs", float64(installs)/fits, "count")
	r.set("distsearch.install_ms", median(installMS), "ms")
	r.set("distsearch.shards", float64(shards)/fits, "count")
	r.set("distsearch.shard_ms", median(shardMS), "ms")
	r.set("distsearch.wire_kb", wire, "KB")
	r.set("distsearch.worker_busy_frac", median(busy), "ratio")
	r.set("distsearch.retries", float64(retries), "count")
}

// trainingRows returns the standardized training rows of a CSV input.
func trainingRows(csv []byte) ([][]float64, error) {
	d, err := iotml.ReadCSV(bytes.NewReader(csv), csvSchema)
	if err != nil {
		return nil, err
	}
	d.Standardize()
	return d.X, nil
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(median(msAll(ds)) * float64(time.Millisecond))
}
