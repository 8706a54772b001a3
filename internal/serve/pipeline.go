// The per-model scoring pipeline: a bounded queue drained by a worker pool
// that micro-batches requests into one vectorized cross-Gram plus one
// matrix-vector product per batch (model.Predictor). Each pipeline
// generation binds the model's training side once and its workers share
// it; each worker owns only its batch scratch (model.Predictor.Fork).
// This is the PR 4 single-model server's engine factored out so the
// registry can run one pipeline per model and swap pipelines atomically:
// the pipeline owns admission, batching, and drain; routing, shedding
// policy, and metrics ownership moved up to Server and Registry.

package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
)

// Sentinel errors the serving layer classifies shed or refused work by.
// HTTP maps ErrQueueFull to 429 + Retry-After, ErrOverloaded to 503 (the
// whole server is saturated), ErrShuttingDown to 503, and ErrModelNotFound
// to 404; library callers test with errors.Is.
var (
	ErrQueueFull       = errors.New("serve: model queue full")
	ErrOverloaded      = errors.New("serve: server overloaded")
	ErrShuttingDown    = errors.New("serve: server shutting down")
	ErrModelNotFound   = errors.New("serve: model not found")
	ErrInvalidInstance = errors.New("serve: invalid instance")
)

// errPipeDraining distinguishes "this pipeline stopped admitting" from a
// server-wide shutdown: the router retries on the successor pipeline when
// the refusal was a hot-swap, and surfaces ErrShuttingDown otherwise.
var errPipeDraining = errors.New("serve: pipeline draining")

// pipeline scores one model's predictions through a bounded queue and a
// micro-batching worker pool.
type pipeline struct {
	queue   chan *job
	done    chan struct{}
	wg      sync.WaitGroup
	metrics *modelMetrics

	maxBatch int
	depth    int

	mu       sync.Mutex
	draining bool
	// inflight counts accepted ScoreBatch calls that have not received
	// their answer yet; Shutdown waits on it to drain the pipeline.
	// Add happens under mu together with the draining check, so a drain
	// can never start between a request's admission and its registration.
	inflight sync.WaitGroup

	// beforeScore, when set, runs once per batch just before scoring — a
	// test hook that lets the shedding suite park a worker deterministically
	// and fill the queue. Never set in production paths.
	beforeScore func()
}

// job is one enqueued predict request; the worker answers on resp (buffered,
// so workers never block on a departed client).
type job struct {
	rows [][]float64
	resp chan jobResult
}

type jobResult struct {
	scores []float64
	err    error
}

// newPipeline validates the artifact, binds one predictor, forks it once
// per worker, and starts the workers. metrics is owned by the caller (the
// registry entry), so counters accumulate across pipeline generations.
func newPipeline(art *model.Artifact, cfg settings, metrics *modelMetrics) (*pipeline, error) {
	pred, err := model.NewPredictor(art)
	if err != nil {
		return nil, err
	}
	p := &pipeline{
		queue:    make(chan *job, cfg.QueueDepth),
		done:     make(chan struct{}),
		metrics:  metrics,
		maxBatch: cfg.MaxBatch,
		depth:    cfg.QueueDepth,
	}
	for w := 0; w < cfg.Workers; w++ {
		p.wg.Add(1)
		go p.worker(pred.Fork())
	}
	return p, nil
}

// ScoreBatch enqueues rows for batched scoring and waits for the answer.
// Rows must already be validated. During a drain admission stops
// immediately, but a request admitted before the drain always receives its
// real answer.
func (p *pipeline) ScoreBatch(rows [][]float64) ([]float64, error) {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return nil, errPipeDraining
	}
	p.inflight.Add(1)
	p.mu.Unlock()
	defer p.inflight.Done()

	j := &job{rows: rows, resp: make(chan jobResult, 1)}
	select {
	case p.queue <- j:
	case <-p.done:
		return nil, errPipeDraining
	default:
		return nil, fmt.Errorf("%w (%d pending requests)", ErrQueueFull, p.depth)
	}
	select {
	case res := <-j.resp:
		return res.scores, res.err
	case <-p.done:
		return nil, errPipeDraining
	}
}

// shutdown gracefully stops the pipeline: new requests are refused
// immediately, every request admitted before the call is scored and
// answered — in-flight micro-batches drain, the queue empties — and then
// the workers exit. If ctx expires first the workers stop at once, the
// remaining work is abandoned with errors, and ctx.Err() is returned.
// Idempotent and safe to call concurrently with traffic.
func (p *pipeline) shutdown(ctx context.Context) error {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		// Every admitted request holds an inflight token until its answer
		// is delivered, so this barrier IS the drain.
		p.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	p.mu.Lock()
	alreadyClosed := false
	select {
	case <-p.done:
		alreadyClosed = true
	default:
		close(p.done)
	}
	p.mu.Unlock()
	if !alreadyClosed {
		p.wg.Wait()
	}
	return err
}

// isDraining reports whether the pipeline has stopped admitting requests.
func (p *pipeline) isDraining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// worker drains the queue, coalescing requests into scoring batches:
// drain, then flush. It takes the first job, adds whatever is already
// queued behind it (up to MaxBatch instances) without waiting for more,
// and scores. Batches grow exactly when requests queue behind a busy
// worker, so an idle server answers a lone request at once.
func (p *pipeline) worker(pred *model.Predictor) {
	defer p.wg.Done()
	var scoreBuf, chunkBuf []float64
	rows := make([][]float64, 0, p.maxBatch)
	for {
		var first *job
		select {
		case <-p.done:
			return
		case first = <-p.queue:
		}
		began := time.Now()
		batch := []*job{first}
		total := len(first.rows)
	coalesce:
		for total < p.maxBatch {
			select {
			case j := <-p.queue:
				batch = append(batch, j)
				total += len(j.rows)
			default:
				break coalesce
			}
		}
		if p.beforeScore != nil {
			p.beforeScore()
		}

		rows = rows[:0]
		for _, j := range batch {
			rows = append(rows, j.rows...)
		}
		// Score in MaxBatch-sized chunks: coalescing bounds how many JOBS
		// join a batch, but a single oversized request can exceed MaxBatch
		// on its own — chunking keeps the worker's cross-Gram scratch
		// bounded at MaxBatch×NumTrain regardless of request size (scoring
		// is row-wise independent, so chunked scores are bit-identical).
		// Rows were validated at the HTTP boundary, so the prevalidated
		// entry point skips the redundant per-row scan.
		scoreBuf = scoreBuf[:0]
		var err error
		for start := 0; start < len(rows) && err == nil; start += p.maxBatch {
			end := min(start+p.maxBatch, len(rows))
			chunkBuf, err = pred.ScoresIntoPrevalidated(chunkBuf, rows[start:end])
			scoreBuf = append(scoreBuf, chunkBuf...)
		}
		if err != nil {
			// Only a malformed hand-enqueued job can reach this. Fail the
			// whole batch loudly.
			for _, j := range batch {
				j.resp <- jobResult{err: err}
			}
			continue
		}
		// Record before replying, so a caller that has its answer also sees
		// the batch in the metrics.
		p.metrics.recordBatch(total, len(batch), time.Since(began), p.isDraining())
		off := 0
		for _, j := range batch {
			// Copy out of the worker's reused score scratch.
			out := make([]float64, len(j.rows))
			copy(out, scoreBuf[off:off+len(j.rows)])
			off += len(j.rows)
			j.resp <- jobResult{scores: out}
		}
	}
}
