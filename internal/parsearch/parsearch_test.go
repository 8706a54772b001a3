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

func TestRunReturnsScoresInCandidateOrder(t *testing.T) {
	// Give later candidates shorter work so completion order inverts
	// submission order; the result slice must still be index-aligned.
	const n = 32
	for _, workers := range []int{1, 2, 4, 16} {
		scores, err := RunContext(context.Background(), n, workers, func(_, i int) (float64, error) {
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			return float64(i * i), nil
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

func TestRunWorkerIDsAreStableAndBounded(t *testing.T) {
	const n, workers = 64, 4
	var active [workers]atomic.Int32
	err := Do(n, workers, func(w, _ int) error {
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

func TestRunLowestIndexErrorWins(t *testing.T) {
	// Candidate 3 fails as soon as candidate 1 is running; candidate 1
	// fails later. The returned error must be candidate 1's (the lowest
	// failing index) even though candidate 3's worker tripped first.
	errSlow := errors.New("slow failure at index 1")
	errFast := errors.New("fast failure at index 3")
	for trial := 0; trial < 10; trial++ {
		claimed := make(chan struct{})
		_, err := RunContext(context.Background(), 4, 4, func(_, i int) (float64, error) {
			switch i {
			case 1:
				close(claimed)
				time.Sleep(2 * time.Millisecond)
				return 0, errSlow
			case 3:
				<-claimed
				return 0, errFast
			default:
				return 0, nil
			}
		})
		if !errors.Is(err, errSlow) {
			t.Fatalf("trial %d: got %v, want the lowest-index error", trial, err)
		}
	}
}

func TestRunZeroCandidates(t *testing.T) {
	scores, err := RunContext(context.Background(), 0, 4, func(_, _ int) (float64, error) {
		t.Fatal("score called for empty candidate set")
		return 0, nil
	})
	if err != nil || len(scores) != 0 {
		t.Fatalf("got scores=%v err=%v", scores, err)
	}
}

func TestDoPropagatesError(t *testing.T) {
	want := errors.New("boom")
	if err := Do(10, 3, func(_, i int) error {
		if i == 2 {
			return want
		}
		return nil
	}); !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
	if err := Do(10, 3, func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestRunConcurrentStress(t *testing.T) {
	// Exercised under -race in CI: many candidates, shared counter.
	var computed atomic.Int64
	const n = 500
	scores, err := RunContext(context.Background(), n, 8, func(_, i int) (float64, error) {
		computed.Add(1)
		return float64(i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != n {
		t.Errorf("computed %d candidates, want %d", computed.Load(), n)
	}
	for i, s := range scores {
		if s != float64(i) {
			t.Fatalf("scores[%d] = %v", i, s)
		}
	}
}
