// The coordinator side of the distributed search. It implements
// mkl.CandidateScorer: each candidate batch a search strategy produces is
// cut into contiguous shards by canonical index, shards are pulled by one
// pump goroutine per live worker (dynamic claiming, so an uneven fleet
// load-balances itself), and scores land back at their candidate index —
// arrival order never influences the reduction, which is what keeps the
// distributed selection bit-identical to the sequential search.
//
// Failure handling lives in the pumps: each shard attempt runs under a
// deadline, failures retry on the same worker with jittered exponential
// backoff, and a worker that exhausts its retry budget (or fails its
// initial health probe, or echoes a mismatched job fingerprint) is marked
// down — its shard is re-queued for a live peer before the loss is
// reported, so no shard is ever stranded. When the last worker dies the
// coordinator drains the queue and declines the remaining candidates
// (mkl.ErrDeclined): the evaluator's cache front scores them on the fit's
// own in-process pool, so the fit completes (more slowly) with
// bit-identical results.
package distsearch

import (
	"context"
	"errors"
	"fmt"
	"hash/crc64"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/mkl"
	"repro/internal/partition"
	"repro/internal/retry"
)

// Options configures a distributed search.
type Options struct {
	// Workers lists worker addresses ("host:port").
	Workers []string
	// Spec is the serializable evaluator configuration both sides expand
	// identically; a fit distributing its search derives its own
	// evaluator from the same Spec, so coordinator-side and worker-side
	// scores agree by construction.
	Spec Spec
	// ShardSize bounds candidates per dispatched shard. 0 sizes shards to
	// about two per worker per batch — small enough that losing a worker
	// re-dispatches little work, large enough to amortize a round trip.
	ShardSize int
	// Deadline bounds each shard attempt, including job (re-)install
	// (default 2m — a hung worker is indistinguishable from a slow one
	// until this expires).
	Deadline time.Duration
	// Attempts is the per-worker try budget per shard before the worker
	// is marked down (default 3).
	Attempts int
	// Backoff is the delay schedule between those attempts (zero value =
	// retry package defaults: 50ms base, 2s cap, factor 2, 20% jitter).
	Backoff retry.Policy
	// Seed, when nonzero, makes backoff jitter reproducible per worker
	// (the fault-injection tests pin schedules this way); 0 draws from
	// the shared source.
	Seed int64
	// Transport overrides the wire (tests inject FaultTransport); nil
	// uses HTTP.
	Transport Transport
}

func (o Options) deadline() time.Duration {
	if o.Deadline <= 0 {
		return 2 * time.Minute
	}
	return o.Deadline
}

func (o Options) attempts() int {
	if o.Attempts <= 0 {
		return 3
	}
	return o.Attempts
}

// Coordinator dispatches candidate shards across a worker fleet. Create
// one per fit with NewCoordinator; it is safe for the sequential search
// loop that owns it (ScoreCandidates is not designed for concurrent
// callers, matching the evaluator it feeds).
type Coordinator struct {
	opts      Options
	transport Transport
	job       *Job

	// emitMu serializes progress emissions: pumps run concurrently, but
	// the progress callback contract promises single-threaded delivery.
	emitMu sync.Mutex
	emit   func(kind mkl.EventKind, detail string)

	mu        sync.Mutex
	down      map[string]bool // workers marked dead (sticky across batches)
	installed map[string]bool // workers holding the job
	rngs      map[string]*rand.Rand
}

// NewCoordinator packages the dataset+spec job and prepares a fleet
// coordinator. It does not touch the network; workers are probed on first
// dispatch.
func NewCoordinator(d *dataset.Dataset, opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("distsearch: no workers configured")
	}
	job, err := NewJob(d, opts.Spec)
	if err != nil {
		return nil, err
	}
	// Fail a bad spec here, not at every worker's install: a fleet that
	// rejects the job would otherwise look like a dead one.
	if _, err := opts.Spec.Config(); err != nil {
		return nil, err
	}
	t := opts.Transport
	if t == nil {
		t = &HTTPTransport{}
	}
	return &Coordinator{
		opts:      opts,
		transport: t,
		job:       job,
		down:      map[string]bool{},
		installed: map[string]bool{},
		rngs:      map[string]*rand.Rand{},
	}, nil
}

// SetEmitter wires the coordinator's shard-lifecycle events (dispatch,
// retry, re-dispatch, worker-down, fallback) into a progress stream —
// typically mkl.(*Evaluator).EmitDistEvent. The coordinator serializes
// calls under a mutex, so fn needs no synchronization of its own; unlike
// the candidate event stream, the dist events' order and count reflect
// real-time transport activity and vary run to run.
func (c *Coordinator) SetEmitter(fn func(kind mkl.EventKind, detail string)) { c.emit = fn }

// Fingerprint identifies the coordinator's job (echoed by every shard).
func (c *Coordinator) Fingerprint() string { return c.job.Fingerprint }

func (c *Coordinator) emitEvent(kind mkl.EventKind, detail string) {
	if c.emit == nil {
		return
	}
	c.emitMu.Lock()
	c.emit(kind, detail)
	c.emitMu.Unlock()
}

// liveWorkers returns the workers not yet marked down.
func (c *Coordinator) liveWorkers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var live []string
	for _, w := range c.opts.Workers {
		if !c.down[w] {
			live = append(live, w)
		}
	}
	return live
}

func (c *Coordinator) markDown(addr string) {
	c.mu.Lock()
	c.down[addr] = true
	c.mu.Unlock()
}

// rngFor returns the worker's backoff jitter source: seeded per worker
// when Options.Seed is set (reproducible schedules), nil otherwise. Each
// worker has at most one pump at a time, so the source is unshared.
func (c *Coordinator) rngFor(addr string) *rand.Rand {
	if c.opts.Seed == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rng, ok := c.rngs[addr]
	if !ok {
		h := crc64.Checksum([]byte(addr), crcTable)
		rng = rand.New(rand.NewSource(c.opts.Seed ^ int64(h)))
		c.rngs[addr] = rng
	}
	return rng
}

// shardRange is one contiguous slice [lo, hi) of the candidate batch.
type shardRange struct{ lo, hi int }

// shardBatch cuts n candidates into contiguous shards.
func (c *Coordinator) shardBatch(n int) []shardRange {
	size := c.opts.ShardSize
	if size <= 0 {
		size = (n + 2*len(c.opts.Workers) - 1) / (2 * len(c.opts.Workers))
		if size < 1 {
			size = 1
		}
	}
	var shards []shardRange
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		shards = append(shards, shardRange{lo, hi})
	}
	return shards
}

// shardResult is a pump's report: one scored shard, or down=true as the
// pump's final message after its worker is marked dead (any claimed shard
// was re-queued first).
type shardResult struct {
	shard  int
	scores []float64
	addr   string
	down   bool
}

// ScoreCandidates implements mkl.CandidateScorer: scores[i] belongs to
// cands[i], with an index-aligned error slice (nil when clean). The
// candidate batch is scored remotely shard by shard; candidates a dead
// fleet left behind carry mkl.ErrDeclined, which the evaluator's cache
// front scores on its own in-process pool. Otherwise only a cancelled
// context produces candidate errors — fleet trouble is handled, not
// reported.
func (c *Coordinator) ScoreCandidates(ctx context.Context, cands []partition.Partition) ([]float64, []error) {
	scores := make([]float64, len(cands))
	var errs []error
	noteErr := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(cands))
		}
		errs[i] = err
	}
	if len(cands) == 0 {
		return scores, nil
	}
	keys := encodeCandidates(cands)
	shards := c.shardBatch(len(cands))
	done := make([]bool, len(shards))
	live := c.liveWorkers()

	if len(live) > 0 {
		pumpCtx, cancel := context.WithCancel(ctx)
		todo := make(chan int, len(shards)) // every shard is in at most one place, so re-queues never block
		for i := range shards {
			todo <- i
		}
		results := make(chan shardResult, len(shards)+len(live))
		requeued := make([]bool, len(shards))
		var reqMu sync.Mutex
		for _, addr := range live {
			go c.pump(pumpCtx, addr, keys, shards, todo, results, requeued, &reqMu)
		}
		pending := len(shards)
		liveN := len(live)
		ctxFailed := false
		record := func(r shardResult) {
			if r.down {
				liveN--
				return
			}
			copy(scores[shards[r.shard].lo:shards[r.shard].hi], r.scores)
			done[r.shard] = true
			pending--
		}
		for pending > 0 && liveN > 0 && !ctxFailed {
			select {
			case r := <-results:
				record(r)
			case <-ctx.Done():
				ctxFailed = true
			}
		}
		cancel()
		// Drain whatever completed before the loop exited: after the last
		// worker's down message every pump's result sends have happened,
		// and after a cancellation anything still in flight is abandoned
		// anyway — its candidates are marked below.
		for drained := false; !drained; {
			select {
			case r := <-results:
				record(r)
			default:
				drained = true
			}
		}
		if ctxFailed {
			// Mirror the in-process pool: completed candidates keep their
			// scores, candidates the cancellation kept from completing are
			// recorded as ctx.Err() at their index.
			for si, sh := range shards {
				if done[si] {
					continue
				}
				for i := sh.lo; i < sh.hi; i++ {
					noteErr(i, ctx.Err())
				}
			}
			return scores, errs
		}
	}

	// Decline whatever the fleet did not finish.
	declined := 0
	for si, sh := range shards {
		if done[si] {
			continue
		}
		for i := sh.lo; i < sh.hi; i++ {
			noteErr(i, mkl.ErrDeclined)
		}
		declined += sh.hi - sh.lo
	}
	if declined > 0 {
		c.emitEvent(mkl.EventDistFallback,
			fmt.Sprintf("no live workers; scoring %d candidates locally", declined))
	}
	return scores, errs
}

// BatchSize implements mkl.CandidateScorer: the coordinator takes whole
// candidate sets, since a dispatch round trip amortizes over the shards
// of a large batch (a greedy step ships its entire cover set).
func (c *Coordinator) BatchSize() int { return 0 }

// pump drives one worker: probe health, then claim shards until the batch
// completes, the context ends, or the worker dies. On death the claimed
// shard is re-queued BEFORE the final down message, so by the time the
// dispatch loop has seen every pump down, the todo queue holds exactly
// the unfinished shards.
func (c *Coordinator) pump(ctx context.Context, addr string, keys []string, shards []shardRange,
	todo chan int, results chan<- shardResult, requeued []bool, reqMu *sync.Mutex) {

	hctx, hcancel := context.WithTimeout(ctx, c.opts.deadline())
	herr := c.transport.Healthy(hctx, addr)
	hcancel()
	if herr != nil {
		if ctx.Err() == nil {
			c.markDown(addr)
			c.emitEvent(mkl.EventWorkerDown, fmt.Sprintf("worker %s failed health probe: %v", addr, herr))
		}
		results <- shardResult{addr: addr, down: true}
		return
	}
	for {
		select {
		case <-ctx.Done():
			return
		case si := <-todo:
			reqMu.Lock()
			redispatch := requeued[si]
			reqMu.Unlock()
			if redispatch {
				c.emitEvent(mkl.EventShardRedispatched,
					fmt.Sprintf("shard %d [%d,%d) re-dispatched to %s", si, shards[si].lo, shards[si].hi, addr))
			}
			sc, err := c.scoreShardOn(ctx, addr, si, shards[si], keys[shards[si].lo:shards[si].hi])
			if err != nil {
				reqMu.Lock()
				requeued[si] = true
				reqMu.Unlock()
				todo <- si
				if ctx.Err() == nil {
					c.markDown(addr)
					c.emitEvent(mkl.EventWorkerDown, fmt.Sprintf("worker %s marked down: %v", addr, err))
				}
				results <- shardResult{addr: addr, down: true}
				return
			}
			results <- shardResult{shard: si, scores: sc, addr: addr}
		}
	}
}

// scoreShardOn runs one shard on one worker under the retry budget:
// install the job if the worker lacks it, dispatch under the per-attempt
// deadline, verify the fingerprint echo and shape, back off jittered
// between failures. The returned error means the worker should be
// considered dead (budget exhausted or context over).
func (c *Coordinator) scoreShardOn(ctx context.Context, addr string, si int, sh shardRange, keys []string) ([]float64, error) {
	rng := c.rngFor(addr)
	var lastErr error
	for attempt := 0; attempt < c.opts.attempts(); attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		if attempt > 0 {
			c.emitEvent(mkl.EventShardRetried,
				fmt.Sprintf("shard %d [%d,%d) on %s: attempt %d after %v", si, sh.lo, sh.hi, addr, attempt+1, lastErr))
			if err := retry.Sleep(ctx, c.opts.Backoff, attempt-1, rng); err != nil {
				return nil, lastErr
			}
		}
		actx, acancel := context.WithTimeout(ctx, c.opts.deadline())
		if err := c.ensureInstalled(actx, addr); err != nil {
			acancel()
			lastErr = err
			continue
		}
		c.emitEvent(mkl.EventShardDispatched,
			fmt.Sprintf("shard %d [%d,%d) → %s (%d candidates)", si, sh.lo, sh.hi, addr, len(keys)))
		resp, err := c.transport.Score(actx, addr, c.job.Fingerprint, keys)
		acancel()
		if err != nil {
			if errors.Is(err, errUnknownJob) {
				// The worker restarted since install: re-install on the
				// next attempt.
				c.mu.Lock()
				c.installed[addr] = false
				c.mu.Unlock()
			}
			lastErr = err
			continue
		}
		if resp.Fingerprint != c.job.Fingerprint {
			lastErr = fmt.Errorf("distsearch: worker %s echoed fingerprint %s, want %s (corrupt result rejected)",
				addr, resp.Fingerprint, c.job.Fingerprint)
			continue
		}
		if len(resp.Scores) != len(keys) {
			lastErr = fmt.Errorf("distsearch: worker %s returned %d scores for %d candidates (corrupt result rejected)",
				addr, len(resp.Scores), len(keys))
			continue
		}
		return resp.Scores, nil
	}
	return nil, lastErr
}

// ensureInstalled delivers the job to a worker that does not hold it yet.
func (c *Coordinator) ensureInstalled(ctx context.Context, addr string) error {
	c.mu.Lock()
	have := c.installed[addr]
	c.mu.Unlock()
	if have {
		return nil
	}
	if err := c.transport.Install(ctx, addr, c.job); err != nil {
		return fmt.Errorf("distsearch: installing job on %s: %w", addr, err)
	}
	c.mu.Lock()
	c.installed[addr] = true
	c.mu.Unlock()
	return nil
}
