// Package parsearch provides the bounded worker-pool engine behind the
// parallel partition-search strategies in internal/mkl and the concurrent
// experiment runner in internal/experiments.
//
// # Determinism guarantee
//
// Every entry point is deterministic regardless of worker count or
// goroutine scheduling:
//
//   - RunContext returns scores indexed by candidate position, so a
//     caller's reduction over them — a scan in index order that keeps the
//     incumbent unless a candidate scores strictly higher, as internal/mkl
//     does — is independent of completion order and bit-identical to the
//     equivalent sequential scan.
//   - On error, the lowest-indexed error among the candidates that were
//     evaluated is returned. Candidates abandoned by the early exit may
//     hide further errors, so callers needing error reports bit-identical
//     to a sequential scan should record errors per candidate themselves
//     and scan in index order (internal/mkl does exactly that).
//   - A panic in a score/fn callback is recovered into a *PanicError and
//     follows the same error path: the pool drains cleanly, no goroutine
//     leaks, and the caller sees the lowest-indexed failure instead of a
//     crashed process.
//
// # Cancellation
//
// RunContext and DoContext observe a context: workers stop claiming new
// candidates as soon as the context is done and the pool returns ctx.Err()
// after every in-flight evaluation has finished — cancellation never
// abandons a running score call mid-way, never deadlocks, and never leaks
// a goroutine. Scores computed before the cancellation are in the returned
// slice; a per-candidate error recorded by score still takes precedence
// over the context error (lowest index first).
//
// Workers are identified by a stable id in [0, workers) so callers can give
// each worker its own scratch state (internal/mkl hands every worker a
// scratch Evaluator whose Gram buffers are reused across candidates).
package parsearch

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error a recovered panic in a score/fn callback turns
// into: the pool must never let one panicking candidate take down the whole
// process (a distributed worker serving shards, a long fit) when every
// other candidate evaluated cleanly. It carries the panicking candidate's
// index, the recovered value, and the goroutine stack at recovery time.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parsearch: panic evaluating candidate %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// safeScore invokes score, converting a panic into a *PanicError so the
// pool's normal error path (lowest-index wins, workers drain, no goroutine
// leak) applies to panicking callbacks exactly as to failing ones.
func safeScore(score func(worker, index int) (float64, error), worker, index int) (s float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: index, Value: r, Stack: debug.Stack()}
		}
	}()
	return score(worker, index)
}

// Workers normalizes a requested parallelism degree: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunContext evaluates n candidates on a bounded pool of `workers`
// goroutines and returns their scores in candidate order. score is called
// as score(worker, index) where worker ∈ [0, workers) identifies the
// goroutine (stable for scratch-state ownership) and index ∈ [0, n) the
// candidate.
//
// Candidates are claimed dynamically (an atomic cursor), so uneven
// per-candidate cost load-balances itself. If any call errors, remaining
// candidates are abandoned as soon as workers observe the failure and the
// lowest-indexed error among the evaluated candidates is returned (which
// error was observable can depend on scheduling; see the package comment).
// If ctx is done, workers stop claiming candidates and ctx.Err() is
// returned unless a score error takes precedence; partially computed
// scores remain in the returned slice at their candidate index.
func RunContext(ctx context.Context, n, workers int, score func(worker, index int) (float64, error)) ([]float64, error) {
	scores := make([]float64, n)
	errs := make([]error, n)
	if n == 0 {
		return scores, ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Fast path: no goroutines, exact sequential behavior (stop at the
		// first error, which is trivially the lowest-index one; the context
		// is polled between candidates, never mid-evaluation).
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return scores, err
			}
			s, err := safeScore(score, 0, i)
			if err != nil {
				return nil, err
			}
			scores[i] = s
		}
		return scores, nil
	}

	var cursor, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if failed.Load() != 0 || ctx.Err() != nil {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				s, err := safeScore(score, worker, i)
				if err != nil {
					errs[i] = err
					failed.Store(1)
					return
				}
				scores[i] = s
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() != 0 {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return scores, err
	}
	return scores, nil
}

// Do runs n independent jobs on a bounded pool of `workers` goroutines and
// waits for all of them. fn is called as fn(worker, index) with the same
// worker-id, dynamic-claiming, and error semantics as RunContext
// (lowest-indexed error among the jobs that ran; later jobs are abandoned
// once a failure is observed).
func Do(n, workers int, fn func(worker, index int) error) error {
	return DoContext(context.Background(), n, workers, fn)
}

// DoContext is Do observing a context, with RunContext's cancellation
// semantics: done jobs are never interrupted, pending jobs are not started
// once ctx is done, and ctx.Err() is returned.
func DoContext(ctx context.Context, n, workers int, fn func(worker, index int) error) error {
	_, err := RunContext(ctx, n, workers, func(worker, index int) (float64, error) {
		return 0, fn(worker, index)
	})
	return err
}
