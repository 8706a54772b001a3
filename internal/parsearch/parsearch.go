// Package parsearch provides the bounded worker-pool engine behind the
// parallel partition-search strategies in internal/mkl and the concurrent
// experiment runner in internal/experiments.
//
// # Determinism guarantee
//
// Do is deterministic regardless of worker count or goroutine scheduling:
//
//   - A job that writes its result at its own index leaves a slice that
//     does not depend on completion order, so a caller's reduction over
//     it — a scan in index order that keeps the incumbent unless a
//     candidate scores strictly higher, as internal/mkl does — is
//     bit-identical to the equivalent sequential scan.
//   - On error, the lowest-indexed error among the jobs that ran is
//     returned. Jobs abandoned by the early exit may hide further errors,
//     so callers needing error reports bit-identical to a sequential scan
//     should record errors per job themselves and scan in index order
//     (internal/mkl does exactly that).
//   - A panic in a job is recovered into a *PanicError and follows the
//     same error path: the pool drains cleanly, no goroutine leaks, and
//     the caller sees the lowest-indexed failure instead of a crashed
//     process.
//
// # Cancellation
//
// Do observes a context: workers stop claiming new jobs as soon as the
// context is done and the pool returns ctx.Err() after every in-flight job
// has finished — cancellation never abandons a running job mid-way, never
// deadlocks, and never leaks a goroutine. A job error recorded before the
// cancellation still takes precedence over the context error (lowest index
// first).
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

// PanicError is the error a recovered panic in a job turns into: the pool
// must never let one panicking job take down the whole process (a
// distributed worker serving shards, a long fit) when every other job ran
// cleanly. It carries the panicking job's index, the recovered value, and
// the goroutine stack at recovery time.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parsearch: panic evaluating candidate %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// safeRun invokes fn, converting a panic into a *PanicError so the pool's
// normal error path (lowest-index wins, workers drain, no goroutine leak)
// applies to panicking jobs exactly as to failing ones.
func safeRun(fn func(worker, index int) error, worker, index int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: index, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(worker, index)
}

// Workers normalizes a requested parallelism degree: values <= 0 select
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do runs n jobs on a bounded pool of `workers` goroutines and waits for
// them. fn is called as fn(worker, index) where worker ∈ [0, workers)
// identifies the goroutine (stable for scratch-state ownership) and
// index ∈ [0, n) the job.
//
// Jobs are claimed dynamically (an atomic cursor), so uneven per-job cost
// load-balances itself. If any job errors, remaining jobs are abandoned as
// soon as workers observe the failure and the lowest-indexed error among
// the jobs that ran is returned (which error was observable can depend on
// scheduling; see the package comment). If ctx is done, workers stop
// claiming jobs and ctx.Err() is returned unless a job error takes
// precedence.
func Do(ctx context.Context, n, workers int, fn func(worker, index int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Fast path: no goroutines, exact sequential behavior (stop at the
		// first error, which is trivially the lowest-index one; the context
		// is polled between jobs, never mid-job).
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := safeRun(fn, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
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
				if err := safeRun(fn, worker, i); err != nil {
					errs[i] = err
					failed.Store(1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() != 0 {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	return ctx.Err()
}
