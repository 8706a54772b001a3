package parsearch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestPanicRecoveredIntoError: a panicking job must surface as a
// *PanicError instead of crashing the process, at every worker count, with
// the pool draining cleanly (no goroutine leak) and the lowest-indexed
// panic winning when the panicking candidate is the only failure observed.
func TestPanicRecoveredIntoError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			err := Do(context.Background(), 32, workers, func(worker, index int) error {
				if index == 7 {
					panic("candidate 7 exploded")
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
			}
			if pe.Index != 7 {
				t.Fatalf("workers=%d: panic index = %d, want 7", workers, pe.Index)
			}
			if !strings.Contains(pe.Error(), "candidate 7 exploded") {
				t.Fatalf("workers=%d: error %q does not carry the panic value", workers, pe.Error())
			}
			if len(pe.Stack) == 0 {
				t.Fatalf("workers=%d: PanicError has no stack", workers)
			}
			waitForGoroutines(t, before)
		})
	}
}

// TestPanicLowestIndexWinsSequential: the single-worker fast path stops at
// the first (lowest-index) panic exactly as it stops at the first error.
func TestPanicLowestIndexWinsSequential(t *testing.T) {
	calls := 0
	err := Do(context.Background(), 16, 1, func(worker, index int) error {
		calls++
		if index >= 3 {
			panic(index)
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 3 {
		t.Fatalf("err = %v, want *PanicError at index 3", err)
	}
	if calls != 4 {
		t.Fatalf("evaluated %d candidates, want 4 (stop at first panic)", calls)
	}
}

// TestPanicEveryCandidate: even when every job panics concurrently the
// pool returns one error and drains.
func TestPanicEveryCandidate(t *testing.T) {
	for _, workers := range []int{2, 8} {
		err := Do(context.Background(), 64, workers, func(worker, index int) error {
			panic(fmt.Sprintf("w%d i%d", worker, index))
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
	}
}

// TestPanicDoesNotMaskContext: a cancel racing a panic still yields a
// usable error (either the panic or ctx.Err()); nothing deadlocks.
func TestPanicDoesNotMaskContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		err := Do(ctx, 128, 4, func(worker, index int) error {
			if index == 10 {
				cancel()
				panic("mid-cancel panic")
			}
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error from panic or cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pool deadlocked after panic + cancel")
	}
}
