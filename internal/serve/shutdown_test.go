package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// newDirectServer builds a single-model server without an HTTP listener —
// for tests exercising ScoreBatch and lifecycle directly.
func newDirectServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Load("default", testArtifact(t)); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), reg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestShutdownDrainsAdmittedRequests: every request admitted before
// Shutdown receives its real scores; requests arriving after are rejected.
// The worker is parked on request 1 with the rest queued behind it, so
// Shutdown lands while a batch is in flight and the test exercises the
// drain, not a fast path.
func TestShutdownDrainsAdmittedRequests(t *testing.T) {
	s := newDirectServer(t, WithWorkers(1))
	p := parkWorkers(t, s, "default")
	pipe := s.reg.lookup("default").state.Load().pipe
	art := testArtifact(t)
	const requests = 8
	q := testQueries(art.Dim(), requests)
	want := offlineScores(t, art, q)

	var wg sync.WaitGroup
	errs := make([]error, requests)
	scores := make([][]float64, requests)
	score := func(i int) {
		defer wg.Done()
		scores[i], errs[i] = s.ScoreBatch("default", [][]float64{q[i]})
	}
	wg.Add(1)
	go score(0)
	p.waitEntered(t)
	for i := 1; i < requests; i++ {
		wg.Add(1)
		go score(i)
	}
	waitFor(t, "queued requests", func() bool { return len(pipe.queue) == requests-1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Shutdown(ctx) }()
	waitFor(t, "the drain to start", pipe.isDraining)
	select {
	case err := <-done:
		t.Fatalf("shutdown returned (%v) while an admitted batch was still parked", err)
	default:
	}
	p.releaseAll()
	if err := <-done; err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	wg.Wait()
	for i := 0; i < requests; i++ {
		if errs[i] != nil {
			t.Fatalf("admitted request %d was dropped by the drain: %v", i, errs[i])
		}
		if len(scores[i]) != 1 || math.Float64bits(scores[i][0]) != math.Float64bits(want[i]) {
			t.Fatalf("request %d got %v, want [%v]", i, scores[i], want[i])
		}
	}
	if m, _ := s.SnapshotModel("default"); m.Drained != requests {
		t.Fatalf("drained counter %d, want %d", m.Drained, requests)
	}

	// Post-shutdown traffic is rejected, not hung.
	if _, err := s.ScoreBatch("default", [][]float64{q[0]}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown request: err = %v, want ErrShuttingDown", err)
	}
}

// TestShutdownIdempotentAndConcurrent: concurrent Shutdown/Close calls
// must not panic or deadlock.
func TestShutdownIdempotentAndConcurrent(t *testing.T) {
	s := newDirectServer(t, WithWorkers(2))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		}()
	}
	wg.Wait()
	s.Close()
}

// TestShutdownTimeoutReturnsPromptly: the drain path must return even on a
// dead context.
func TestShutdownTimeoutReturnsPromptly(t *testing.T) {
	s := newDirectServer(t, WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// With no traffic the drain succeeds instantly even on a dead context
	// (the drained channel races the ctx branch); either nil or ctx.Err()
	// is acceptable, but it must return.
	done := make(chan struct{})
	go func() { _ = s.Shutdown(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("shutdown hung on a dead context")
	}
}

// TestNewContextShutsDownOnCancel: cancelling the base context drains and
// stops the server on its own.
func TestNewContextShutsDownOnCancel(t *testing.T) {
	art := testArtifact(t)
	reg := NewRegistry()
	if err := reg.Load("default", art); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s, err := New(ctx, reg, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	row := make([]float64, art.Dim())
	if _, err := s.ScoreBatch("default", [][]float64{row}); err != nil {
		t.Fatalf("pre-cancel request failed: %v", err)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := s.ScoreBatch("default", [][]float64{row}); err != nil {
			break // rejection proves the drain started
		}
		if time.Now().After(deadline) {
			t.Fatal("server still accepting traffic after base-context cancellation")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestListenAndServeContextDrainsCleanly: the context-driven listener
// returns nil after a clean drain — the exit-0 path of `iotml serve`.
func TestListenAndServeContextDrainsCleanly(t *testing.T) {
	s := newDirectServer(t, WithWorkers(2))
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServeContext(ctx, "127.0.0.1:0") }()
	time.Sleep(50 * time.Millisecond) // let the listener come up
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("clean shutdown returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServeContext did not return after cancellation")
	}
}
