// The search core: every lattice-search strategy (ExhaustiveCone,
// ChainSearch, GreedyRefine, and the DendrogramSearch / ChainBeamSearch
// extensions) produces its candidates in canonical order, scores them
// through one CandidateScorer behind one cache front, and reduces the
// scores with a sequential scan in that same order. Which scorer did the
// work never shows in the outcome:
//
//   - With no scorer attached, a search builds an in-process pool of
//     Config.Parallelism workers (internal/parsearch), each owning a scratch
//     Evaluator whose Gram buffers are reused across candidates and sharing
//     per-block Grams through the evaluator's concurrency-safe block cache.
//     A one-worker pool is the exact sequential path: each candidate is
//     scored by Score and reduced before the next one is scored.
//   - SetScorer attaches another scorer — internal/distsearch's Coordinator
//     shards each batch across remote worker processes, whose ScoreShard
//     runs the same pool. Candidates an attached scorer declines
//     (ErrDeclined: a dead fleet left them unscored) fall back to the
//     in-process pool, so they are scored with this evaluator's own
//     Parallelism and block cache.
//
// Because the reduction is an index-order scan and every scorer runs the
// same deterministic evaluation pipeline, the selected partition, score,
// trace and progress stream are bit-identical at every worker count and
// fleet size; only the count of speculatively scored candidates varies.
package mkl

import (
	"context"
	"errors"
	"time"

	"repro/internal/parsearch"
	"repro/internal/partition"
)

// CandidateScorer scores a batch of candidate partitions positioned by
// index. Implementations return scores[i] for cands[i] plus an
// index-aligned error slice (nil, or all nil, when the whole batch scored
// clean); a per-candidate error must occupy the candidate's index so the
// caller's canonical-order reduction can surface it exactly where a
// sequential search would have failed. ScoreCandidates may be called
// several times during one search (greedy climbs score one cover batch per
// step) and must return bit-identical scores for a repeated candidate.
type CandidateScorer interface {
	ScoreCandidates(ctx context.Context, cands []partition.Partition) ([]float64, []error)
	// BatchSize is how many candidates the scorer wants per call from a
	// search that may stop partway through its candidates (a greedy step,
	// a first-improvement chain), bounding the work spent past the stop.
	// 0 asks for the whole candidate set.
	BatchSize() int
}

// ErrDeclined is the error a CandidateScorer records at the index of a
// candidate it gives back unscored — the distributed coordinator's answer
// once its whole fleet is down. The cache front scores declined
// candidates on the evaluator's in-process pool, so a declined candidate
// costs time, never correctness.
var ErrDeclined = errors.New("mkl: candidate declined by scorer")

// SetScorer attaches sc as the scorer every candidate batch of a search on
// this evaluator goes through — typically an internal/distsearch
// Coordinator, for a search distributed over a worker fleet. A nil sc (the
// default) scores on an in-process pool of Config.Parallelism workers.
// Scores always pass the evaluator's cache front first, so configurations
// already scored never reach sc.
func (e *Evaluator) SetScorer(sc CandidateScorer) { e.scorer = sc }

// pool is the in-process CandidateScorer: a bounded parsearch pool over
// worker-owned evaluators. It only ever sees cache misses (the cache front
// filters everything else), so its workers compute scores and nothing
// more. Build one per search or shard: the scratch evaluators' Gram
// buffers live exactly as long as the pool.
type pool struct {
	// workers is the parent evaluator itself for a one-worker pool (its
	// buffers, no goroutines), else one scratch clone per worker.
	workers []*Evaluator
}

func (e *Evaluator) newPool() *pool {
	n := e.workers()
	if n <= 1 {
		return &pool{workers: []*Evaluator{e}}
	}
	p := &pool{workers: make([]*Evaluator, n)}
	for w := range p.workers {
		p.workers[w] = e.scratchClone()
	}
	return p
}

// BatchSize lets a stoppable search speculate speculationPerWorker
// candidates per worker: enough to keep every worker busy, little enough
// that an early stop wastes little. (A search never batches on a
// one-worker pool: it takes the sequential path instead.)
func (p *pool) BatchSize() int { return len(p.workers) * speculationPerWorker }

// speculationPerWorker sizes the per-worker lookahead of a pool's batches.
const speculationPerWorker = 4

// ScoreCandidates scores every candidate on the pool. Candidate errors do
// not stop the pool: the caller's canonical scan surfaces an error only
// where the sequential search would have reached it. Once ctx is done the
// pool claims no further candidates, and every candidate left unscored
// carries the pool's error (ctx.Err(), or a recovered panic) at its index.
func (p *pool) ScoreCandidates(ctx context.Context, cands []partition.Partition) ([]float64, []error) {
	scores := make([]float64, len(cands))
	errs := make([]error, len(cands))
	// done[i] is written only by the worker that claimed candidate i and
	// read after the pool's barrier, so it needs no lock.
	done := make([]bool, len(cands))
	_, err := parsearch.RunContext(ctx, len(cands), len(p.workers), func(w, i int) (float64, error) {
		scores[i], errs[i] = p.workers[w].scoreConfig(cands[i])
		done[i] = true
		return 0, nil
	})
	if err != nil {
		for i := range cands {
			if !done[i] {
				errs[i] = err
			}
		}
	}
	return scores, errs
}

// scorerFor returns the scorer of one search or shard: the attached one,
// or a pool built for that search alone.
func (e *Evaluator) scorerFor() CandidateScorer {
	if e.scorer != nil {
		return e.scorer
	}
	return e.newPool()
}

// scoreVia is the cache front every scorer sits behind. It looks each
// candidate up in the evaluator's score cache, sends only the misses —
// deduplicated by canonical key — to sc, and records the computed scores
// in the evaluator as if Score had computed them: a hit costs one call, a
// miss one call and one evaluation. Scores come back in candidate order
// with an index-aligned error slice (nil when clean); failed candidates
// are neither counted nor cached.
func (e *Evaluator) scoreVia(ctx context.Context, sc CandidateScorer, cands []partition.Partition) ([]float64, []error) {
	scores := make([]float64, len(cands))
	var errs []error
	noteErr := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(cands))
		}
		errs[i] = err
	}
	if err := ctx.Err(); err != nil {
		for i := range cands {
			noteErr(i, err)
		}
		return scores, errs
	}
	keys := make([]string, len(cands))
	missAt := make(map[string]int, len(cands)) // key → index into miss
	var miss []partition.Partition
	for i, p := range cands {
		if err := e.checkDims(p); err != nil {
			noteErr(i, err)
			continue
		}
		keys[i] = p.Key()
		if _, ok := e.cache[keys[i]]; ok {
			continue
		}
		if _, ok := missAt[keys[i]]; !ok {
			missAt[keys[i]] = len(miss)
			miss = append(miss, p)
		}
	}
	var mScores []float64
	var mErrs []error
	if len(miss) > 0 {
		mScores, mErrs = sc.ScoreCandidates(ctx, miss)
		e.scoreDeclined(ctx, miss, mScores, mErrs)
	}
	for i := range cands {
		if errAt(errs, i) != nil {
			continue
		}
		// A batch's repeat of a candidate finds its first visit cached.
		if s, ok := e.cache[keys[i]]; ok {
			e.calls++
			scores[i] = s
			continue
		}
		mi := missAt[keys[i]]
		if err := errAt(mErrs, mi); err != nil {
			noteErr(i, err)
			continue
		}
		e.calls++
		e.evals++
		e.cache[keys[i]] = mScores[mi]
		scores[i] = mScores[mi]
	}
	return scores, errs
}

// scoreDeclined scores, on the in-process pool, every candidate the
// scorer answered with ErrDeclined, writing each score and error back at
// the candidate's index.
func (e *Evaluator) scoreDeclined(ctx context.Context, cands []partition.Partition, scores []float64, errs []error) {
	var at []int
	var declined []partition.Partition
	for i := range cands {
		if errors.Is(errAt(errs, i), ErrDeclined) {
			at = append(at, i)
			declined = append(declined, cands[i])
		}
	}
	if len(declined) == 0 {
		return
	}
	dScores, dErrs := e.newPool().ScoreCandidates(ctx, declined)
	for j, i := range at {
		scores[i], errs[i] = dScores[j], dErrs[j]
	}
}

// errAt returns the recorded error for candidate i, if any.
func errAt(errs []error, i int) error {
	if errs == nil {
		return nil
	}
	return errs[i]
}

// ScoreShard scores one shard of the candidate lattice on the evaluator —
// the worker-process entry point of the distributed search — through its
// cache front and scorer (the attached one, else a pool of
// Config.Parallelism workers built for this call), and returns the scores
// in candidate order. The first error in canonical candidate order is
// returned, matching the sequential scan's error choice; scores before it
// are still valid.
func ScoreShard(e *Evaluator, cands []partition.Partition) ([]float64, error) {
	scores, errs := e.scoreVia(e.searchCtx(), e.scorerFor(), cands)
	for i := range cands {
		if err := errAt(errs, i); err != nil {
			return scores, err
		}
	}
	return scores, nil
}

// searchRun is one search's view of its evaluator: the scorer every
// candidate batch goes through and the call count the search started at.
type searchRun struct {
	e     *Evaluator
	sc    CandidateScorer
	seq   bool // sc is a one-worker pool: score through Score, one by one
	start int
}

func (e *Evaluator) beginSearch() *searchRun {
	r := &searchRun{e: e, sc: e.scorerFor(), start: e.calls}
	if p, ok := r.sc.(*pool); ok && len(p.workers) == 1 {
		r.seq = true
	}
	return r
}

// evaluations is the search's cost so far: Score calls, cache hits
// included, since the search began.
func (r *searchRun) evaluations() int { return r.e.calls - r.start }

// sweep scores cands and hands each score, in canonical order, to visit,
// which reports whether the search wants the next one. It returns the
// first candidate error in canonical order, after visiting every candidate
// before it. A stoppable sweep sends the scorer batches of its BatchSize;
// one that consumes every candidate (whole) sends them all at once. On
// the sequential path each candidate is scored by Score only after visit
// has seen the one before, so its sequence of Score calls — and with it
// Evaluations — is exactly the plain sequential loop's.
func (r *searchRun) sweep(cands []partition.Partition, whole bool, visit func(i int, s float64) bool) error {
	if r.seq {
		for i, p := range cands {
			s, err := r.e.Score(p)
			if err != nil {
				return err
			}
			if !visit(i, s) {
				return nil
			}
		}
		return nil
	}
	size := r.sc.BatchSize()
	if whole || size <= 0 {
		size = len(cands)
	}
	for off := 0; off < len(cands); off += size {
		scores, errs := r.e.scoreVia(r.e.searchCtx(), r.sc, cands[off:min(off+size, len(cands))])
		for i, s := range scores {
			if err := errAt(errs, i); err != nil {
				return err
			}
			if !visit(off+i, s) {
				return nil
			}
		}
	}
	return nil
}

// EmitDistEvent delivers one coordinator progress event (shard dispatch,
// retry, re-dispatch, worker loss, fallback) to the configured progress
// callback. The coordinator serializes calls, so the callback keeps its
// no-synchronization contract; without a callback this is free.
//
//iotml:allow walltime -- event timestamps are observability metadata; they never feed scoring or selection
func (e *Evaluator) EmitDistEvent(kind EventKind, detail string) {
	fn := e.cfg.Progress
	if fn == nil {
		return
	}
	fn(Event{Kind: kind, Time: time.Now(), Detail: detail})
}
