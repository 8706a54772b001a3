package parsearch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// waitForGoroutines polls until the live goroutine count drops back to (at
// most) the baseline, failing the test if it does not settle — the
// goleak-style leak check the determinism suite runs under -race.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDoCancellation cancels mid-run at every worker count the
// determinism suite uses: the pool must return ctx.Err() promptly (without
// abandoning an in-flight job mid-way), never deadlock, and leave no
// worker goroutine behind.
func TestDoCancellation(t *testing.T) {
	const n = 256
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var evaluated atomic.Int64
			scores := make([]float64, n)
			err := Do(ctx, n, workers, func(_, i int) error {
				if evaluated.Add(1) == 10 {
					cancel() // cancel mid-run, from inside a job
				}
				scores[i] = float64(i + 1)
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			got := evaluated.Load()
			if got >= n {
				t.Fatalf("all %d jobs ran despite cancellation", n)
			}
			// In-flight jobs finish; their results land at their index.
			filled := int64(0)
			for _, s := range scores {
				if s != 0 {
					filled++
				}
			}
			if filled == 0 || filled > got {
				t.Fatalf("%d results filled, %d jobs ran", filled, got)
			}
			waitForGoroutines(t, baseline)
		})
	}
}

// TestDoPreCancelled: a context that is already done runs nothing.
func TestDoPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		called := atomic.Int64{}
		err := Do(ctx, 64, workers, func(_, _ int) error {
			called.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The multi-worker pool may let a worker claim one job in the
		// window before its first poll; it must not get past that.
		if c := called.Load(); c > int64(workers) {
			t.Fatalf("workers=%d: %d jobs ran on a dead context", workers, c)
		}
	}
}

// TestDoErrorBeatsCancellation: a job error recorded before the
// cancellation keeps the lowest-index-error contract.
func TestDoErrorBeatsCancellation(t *testing.T) {
	want := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := Do(ctx, 32, 4, func(_, i int) error {
		if i == 3 {
			cancel()
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want the job error", err)
	}
}
