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

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-2) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestDoResultsInIndexOrder(t *testing.T) {
	// Give later jobs shorter work so completion order inverts submission
	// order; results written at each job's index must still line up.
	const n = 32
	for _, workers := range []int{1, 2, 4, 16} {
		scores := make([]float64, n)
		err := Do(context.Background(), n, workers, func(_, i int) error {
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			scores[i] = float64(i * i)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, s := range scores {
			if s != float64(i*i) {
				t.Fatalf("workers=%d: scores[%d] = %v, want %v", workers, i, s, float64(i*i))
			}
		}
	}
}

func TestDoWorkerIDsAreStableAndBounded(t *testing.T) {
	const n, workers = 64, 4
	var active [workers]atomic.Int32
	err := Do(context.Background(), n, workers, func(w, _ int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("worker id %d out of range", w)
		}
		if active[w].Add(1) != 1 {
			return fmt.Errorf("worker id %d used concurrently", w)
		}
		time.Sleep(200 * time.Microsecond)
		active[w].Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoLowestIndexErrorWins(t *testing.T) {
	// Job 3 fails as soon as job 1 is running; job 1 fails later. The
	// returned error must be job 1's (the lowest failing index) even
	// though job 3's worker tripped first.
	errSlow := errors.New("slow failure at index 1")
	errFast := errors.New("fast failure at index 3")
	for trial := 0; trial < 10; trial++ {
		claimed := make(chan struct{})
		err := Do(context.Background(), 4, 4, func(_, i int) error {
			switch i {
			case 1:
				close(claimed)
				time.Sleep(2 * time.Millisecond)
				return errSlow
			case 3:
				<-claimed
				return errFast
			default:
				return nil
			}
		})
		if !errors.Is(err, errSlow) {
			t.Fatalf("trial %d: got %v, want the lowest-index error", trial, err)
		}
	}
}

func TestDoZeroJobs(t *testing.T) {
	err := Do(context.Background(), 0, 4, func(_, _ int) error {
		t.Fatal("fn called for an empty job set")
		return nil
	})
	if err != nil {
		t.Fatalf("got err=%v", err)
	}
}

func TestDoPropagatesError(t *testing.T) {
	want := errors.New("boom")
	if err := Do(context.Background(), 10, 3, func(_, i int) error {
		if i == 2 {
			return want
		}
		return nil
	}); !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
	if err := Do(context.Background(), 10, 3, func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestDoConcurrentStress(t *testing.T) {
	// Exercised under -race in CI: many jobs, shared counter.
	var computed atomic.Int64
	const n = 500
	scores := make([]float64, n)
	err := Do(context.Background(), n, 8, func(_, i int) error {
		computed.Add(1)
		scores[i] = float64(i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != n {
		t.Errorf("computed %d jobs, want %d", computed.Load(), n)
	}
	for i, s := range scores {
		if s != float64(i) {
			t.Fatalf("scores[%d] = %v", i, s)
		}
	}
}
