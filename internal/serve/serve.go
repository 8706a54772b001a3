// Package serve is the online half of the train-once/serve-forever split:
// a fleet-scale HTTP inference server over persisted model artifacts
// (internal/model). The offline pipeline fits and saves models; this
// server routes prediction traffic to a registry of N models, hot-swaps
// refreshed artifacts with zero downtime, and sheds load instead of
// melting.
//
// # Architecture
//
//	Registry  model store: id → (artifact, fingerprint, pipeline), one
//	          atomic pointer per model (registry.go)
//	pipeline  per-model bounded queue + micro-batching worker pool; one
//	          training side bound per generation, shared by its workers,
//	          each with its own model.Predictor scratch (pipeline.go)
//	watcher   ModelDir poller: stat mtime/size, fingerprint-compare, swap
//	          (watcher.go)
//	Server    routing, admission control, HTTP surface, lifecycle
//	          (serve.go, http.go)
//
// # Batching
//
// Concurrent predictions per model are micro-batched by drain-then-flush:
// a worker takes the first queued request, adds whatever is already
// queued behind it (up to MaxBatch instances) without waiting for more,
// and scores the batch as ONE vectorized cross-Gram against the bound
// training side plus ONE matrix-vector product, in worker-owned reused
// scratch, allocating nothing in steady state. Batches grow
// when requests queue behind a busy worker; a lone request on an idle
// server is scored at once. Scoring is row-wise independent, so batched
// and chunked scores are bit-identical to single-request scores —
// batching changes latency and throughput, never answers.
//
// # Hot-swap
//
// A changed artifact (Registry.Load on a live id, or the ModelDir watcher
// noticing a rewritten file) is loaded, warmed, and published with one
// atomic pointer store; the previous pipeline drains through the graceful
// shutdown machinery with zero dropped admitted requests. Every response
// is computed wholly by one model generation, and a sequential client sees
// a single monotonic switchover. See registry.go for the full contract.
//
// # Load-shedding and admission priorities
//
// Each model's queue is bounded (WithQueueDepth): overflow sheds the
// request with 429 and a Retry-After hint — that model is busy, retry
// later. In-flight predictions across all models are bounded too
// (WithGlobalQueueDepth): beyond it requests are shed with 503 — the
// server as a whole is saturated. Health, model-metadata, and metrics
// endpoints never enqueue behind predictions: they read copy-on-read
// snapshots directly, so operators can always see a saturated server
// struggling instead of timing out with it.
//
// # Endpoints (v1)
//
//	GET  /v1/healthz              liveness + per-model serving metrics
//	GET  /v1/models               registered models (id, fingerprint, ...)
//	GET  /v1/models/{id}          one model's self-description
//	POST /v1/models/{id}/predict  {"instances": [[...], ...]} →
//	                              {"scores": [...], "labels": [...]}
//	GET  /v1/metrics              Prometheus text exposition
//
// Errors carry a structured envelope {"error":{"code":...,"message":...}}
// with stable codes (invalid_request, model_not_found, method_not_allowed,
// queue_full, overloaded, shutting_down).
//
// # Shutdown
//
// New ties the server to a base context: cancellation initiates a graceful
// shutdown — admission stops, every admitted request is scored and
// answered, pipelines drain, workers exit — bounded by WithDrainTimeout.
// ListenAndServeContext layers the HTTP listener's own drain on top, and
// Close is Shutdown with an already-expired deadline. `iotml serve` wires
// SIGINT/SIGTERM into this path, so an operator stop never drops an
// accepted prediction.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Server routes prediction traffic to a Registry of models, enforcing
// global admission bounds and exposing the HTTP surface.
type Server struct {
	reg   *Registry
	cfg   settings
	start time.Time

	// pending counts admitted predictions not yet answered, across all
	// models — the global saturation gauge.
	pending atomic.Int64

	reloadErrors  atomic.Int64
	reloadRetries atomic.Int64
	errMu         sync.Mutex
	lastErr       string

	mu       sync.Mutex
	draining bool
	// watchStop ends the ModelDir poller; watchDone confirms it exited.
	watchStop chan struct{}
	watchDone chan struct{}
	// stamps is the watcher's file-change memory (path → mtime/size),
	// touched only by the initial scan and the watch goroutine.
	stamps map[string]fileStamp
}

// New resolves the options, loads WithModelDir artifacts into reg, builds
// one scoring pipeline per registered model, starts the ModelDir watcher
// (if configured), and ties the server's lifecycle to ctx: once ctx is
// done the server drains gracefully on its own, bounded by
// WithDrainTimeout. Callers must Shutdown (or Close) it to release the
// workers.
func New(ctx context.Context, reg *Registry, opts ...Option) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("serve: nil registry")
	}
	cfg := defaultSettings()
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{
		reg:    reg,
		cfg:    cfg,
		start:  time.Now(),
		stamps: make(map[string]fileStamp),
	}
	if cfg.ModelDir != "" {
		if err := s.scanModelDir(); err != nil {
			return nil, err
		}
	}
	if err := reg.attach(s); err != nil {
		return nil, err
	}
	if cfg.ModelDir != "" {
		s.watchStop = make(chan struct{})
		s.watchDone = make(chan struct{})
		go s.watch(s.watchStop, s.watchDone)
	}
	if ctx != nil && ctx.Done() != nil {
		go func() {
			<-ctx.Done()
			drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
			defer cancel()
			_ = s.Shutdown(drainCtx)
		}()
	}
	return s, nil
}

// Registry returns the server's model registry — the handle for runtime
// model management (Load to hot-swap, Remove to retire).
func (s *Server) Registry() *Registry { return s.reg }

// SnapshotModel returns one model's metrics snapshot.
func (s *Server) SnapshotModel(id string) (Metrics, bool) {
	e := s.reg.lookup(id)
	if e == nil {
		return Metrics{}, false
	}
	return e.metrics.Snapshot(), true
}

// Totals aggregates every model's counters into one Metrics value (sums
// for counters, maxima for the max fields, zero for the last-batch
// fields) — the fleet-level view the CLI prints at exit.
func (s *Server) Totals() Metrics {
	var t Metrics
	for _, m := range s.reg.Snapshot() {
		t.Requests += m.Requests
		t.Rejected += m.Rejected
		t.Shed += m.Shed
		t.Drained += m.Drained
		t.Swaps += m.Swaps
		t.Instances += m.Instances
		t.Batches += m.Batches
		t.TotalBatchMicros += m.TotalBatchMicros
		if m.MaxBatchSize > t.MaxBatchSize {
			t.MaxBatchSize = m.MaxBatchSize
		}
		if m.MaxBatchMicros > t.MaxBatchMicros {
			t.MaxBatchMicros = m.MaxBatchMicros
		}
	}
	return t
}

// ScoreBatch routes rows to the named model's pipeline and waits for the
// answer — the transport-free core of /v1/models/{id}/predict. Rows must
// already be validated (the HTTP boundary does). Shed and refused work
// comes back as ErrQueueFull, ErrOverloaded, ErrShuttingDown, or
// ErrModelNotFound; a request that races a hot-swap retries on the
// published successor, so admitted traffic never observes the swap.
func (s *Server) ScoreBatch(id string, rows [][]float64) ([]float64, error) {
	if s.isDraining() {
		return nil, ErrShuttingDown
	}
	e := s.reg.lookup(id)
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrModelNotFound, id)
	}
	// Global admission: bound in-flight predictions across every model.
	if s.pending.Add(1) > int64(s.cfg.GlobalQueueDepth) {
		s.pending.Add(-1)
		e.metrics.countShed()
		return nil, fmt.Errorf("%w (%d in-flight predictions)", ErrOverloaded, s.cfg.GlobalQueueDepth)
	}
	defer s.pending.Add(-1)

	for {
		st := e.state.Load()
		if st == nil || st.pipe == nil {
			return nil, fmt.Errorf("%w: %q", ErrModelNotFound, id)
		}
		// Dim integrity inside the swap window: rows were validated against
		// the dim the caller observed, which a concurrent swap may have
		// changed. The cheap length check here keeps a wrong-shape row from
		// silently corrupting the new pipeline's batch matrix.
		dim := st.art.Dim()
		for i, row := range rows {
			if len(row) != dim {
				return nil, fmt.Errorf("%w %d: has %d features, model wants %d", ErrInvalidInstance, i, len(row), dim)
			}
		}
		scores, err := st.pipe.ScoreBatch(rows)
		if errors.Is(err, errPipeDraining) {
			if e.state.Load() != st {
				continue // hot-swapped under us; retry on the successor
			}
			return nil, ErrShuttingDown
		}
		if errors.Is(err, ErrQueueFull) {
			e.metrics.countShed()
			return nil, err
		}
		if err == nil {
			e.metrics.countAccepted()
		}
		return scores, err
	}
}

// Shutdown gracefully stops the server: the watcher exits, new requests
// are rejected immediately (503 over HTTP), every request admitted before
// the call is scored and answered — in-flight micro-batches drain, queues
// empty — and then the scoring workers exit. If ctx expires first the
// remaining work is abandoned with errors and ctx.Err() is returned.
// Idempotent and safe to call concurrently with traffic.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.stopWatcher()
	return s.reg.shutdownAll(ctx)
}

// Close is Shutdown with an already-expired deadline: the watcher and
// every pipeline stop at once, and queued and in-flight requests receive
// errors. Prefer Shutdown for a graceful drain. The HTTP listener, if
// any, is the caller's to shut down (see ListenAndServeContext).
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx) // ctx.Err() when work was abandoned: that is what Close asks for
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ListenAndServeContext serves the API on addr until ctx is done, then
// shuts down gracefully: the HTTP listener stops accepting and waits for
// in-flight handlers, the scoring pipelines drain their micro-batches, and
// the workers exit — all bounded by WithDrainTimeout. It returns nil
// after a clean drain (the signal-driven exit-0 path of `iotml serve`),
// ctx's error if the drain timed out, or the listener's error if it failed
// before the shutdown.
func (s *Server) ListenAndServeContext(ctx context.Context, addr string) error {
	hs := &http.Server{Addr: addr, Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	// Stop the listener first so no new requests race the pipeline drain;
	// http.Server.Shutdown waits for handlers already inside ScoreBatch.
	httpErr := hs.Shutdown(drainCtx)
	drainErr := s.Shutdown(drainCtx)
	if httpErr != nil {
		return fmt.Errorf("serve: http shutdown: %w", httpErr)
	}
	if drainErr != nil {
		return fmt.Errorf("serve: drain: %w", drainErr)
	}
	return nil
}

// recordReloadError notes a failed artifact reload for /healthz and the
// metrics exposition.
func (s *Server) recordReloadError(err error) {
	s.reloadErrors.Add(1)
	s.errMu.Lock()
	s.lastErr = err.Error()
	s.errMu.Unlock()
}

func (s *Server) lastReloadError() string {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.lastErr
}
