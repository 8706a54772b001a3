package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// parked controls workers frozen by parkWorkers: entered receives one
// signal each time a worker reaches scoring (so a test can sequence "the
// worker holds batch 1" before enqueuing batch 2), and releaseAll
// unfreezes them. releaseAll is idempotent and registered as a test
// cleanup, so a t.Fatal anywhere mid-test can never leave a parked worker
// deadlocking the server's drain in Close.
type parked struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (p *parked) releaseAll() { p.once.Do(func() { close(p.release) }) }

func (p *parked) waitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-p.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("no worker reached scoring within 5s")
	}
}

// parkWorkers installs the beforeScore hook on the model's live pipeline so
// its workers block right before scoring — letting the tests fill queues
// deterministically instead of racing fast scoring. Must be called before
// any traffic is sent (the hook write happens-before the first job's
// channel send).
func parkWorkers(t *testing.T, s *Server, id string) *parked {
	t.Helper()
	e := s.reg.lookup(id)
	if e == nil {
		t.Fatalf("model %q not registered", id)
	}
	st := e.state.Load()
	if st == nil || st.pipe == nil {
		t.Fatalf("model %q has no live pipeline", id)
	}
	p := &parked{entered: make(chan struct{}, 64), release: make(chan struct{})}
	st.pipe.beforeScore = func() {
		p.entered <- struct{}{}
		<-p.release
	}
	t.Cleanup(p.releaseAll)
	return p
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueueFullSheds429 saturates a 1-deep model queue and pins the
// shedding contract: the overflow request gets 429 with a Retry-After hint
// and the queue_full code, every admitted request is answered with scores
// bit-identical to offline scoring, and the shed counter advances.
func TestQueueFullSheds429(t *testing.T) {
	art := testArtifact(t)
	reg := NewRegistry()
	if err := reg.Load("default", art); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), reg,
		WithWorkers(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	p := parkWorkers(t, s, "default")
	pipe := s.reg.lookup("default").state.Load().pipe

	q := testQueries(art.Dim(), 2)
	want := offlineScores(t, art, q)

	var wg sync.WaitGroup
	got := make([][]float64, 2)
	errs := make([]error, 2)
	score := func(i int) {
		defer wg.Done()
		got[i], errs[i] = s.ScoreBatch("default", [][]float64{q[i]})
	}
	// First request: wait until the worker holds it parked in the hook —
	// launching both at once would let the worker coalesce them into one
	// batch and the queue would never fill.
	wg.Add(1)
	go score(0)
	p.waitEntered(t)
	// Second request: fills the 1-deep queue behind the parked worker.
	wg.Add(1)
	go score(1)
	waitFor(t, "queue saturation", func() bool { return len(pipe.queue) == 1 })

	// The overflow request is shed over HTTP: 429, Retry-After, queue_full.
	resp, body := postPredict(t, hs.URL, PredictRequest{Instances: [][]float64{q[0]}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	if e := decodeError(t, body); e.Code != CodeQueueFull {
		t.Fatalf("code %q, want %q", e.Code, CodeQueueFull)
	}

	// Health, model metadata, and metrics never queue behind predictions:
	// all three answer 200 while the model is saturated.
	for _, path := range []string{"/v1/healthz", "/v1/models/default", "/v1/metrics"} {
		r, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s during saturation: status %d, want 200", path, r.StatusCode)
		}
	}

	// Release the worker: both admitted requests get their real answers.
	p.releaseAll()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("admitted request %d failed: %v", i, errs[i])
		}
		if math.Float64bits(got[i][0]) != math.Float64bits(want[i]) {
			t.Fatalf("admitted score %d = %v, want offline %v", i, got[i][0], want[i])
		}
	}
	m, _ := s.SnapshotModel("default")
	if m.Shed < 1 {
		t.Fatalf("shed counter %d, want >= 1", m.Shed)
	}
	if m.Requests != 2 {
		t.Fatalf("accepted counter %d, want 2", m.Requests)
	}
}

// TestGlobalSaturationSheds503 pins the second shedding tier: beyond
// GlobalQueueDepth in-flight predictions the server answers 503 with the
// overloaded code — retrying another model would not help.
func TestGlobalSaturationSheds503(t *testing.T) {
	art := testArtifact(t)
	reg := NewRegistry()
	if err := reg.Load("default", art); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), reg,
		WithWorkers(1), WithQueueDepth(8), WithGlobalQueueDepth(2))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	p := parkWorkers(t, s, "default")

	q := testQueries(art.Dim(), 2)
	want := offlineScores(t, art, q)

	// Whether the worker coalesces both requests into one parked batch or
	// leaves one queued, the admission gauge counts both until they answer.
	var wg sync.WaitGroup
	got := make([][]float64, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.ScoreBatch("default", [][]float64{q[i]})
		}(i)
	}
	waitFor(t, "global admission saturation", func() bool { return s.pending.Load() == 2 })

	resp, body := postPredict(t, hs.URL, PredictRequest{Instances: [][]float64{q[0]}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload status %d, want 503: %s", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Code != CodeOverloaded {
		t.Fatalf("code %q, want %q", e.Code, CodeOverloaded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 overload missing Retry-After header")
	}

	// The library surface sheds with the matching sentinel.
	if _, err := s.ScoreBatch("default", [][]float64{q[0]}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("ScoreBatch err = %v, want ErrOverloaded", err)
	}

	p.releaseAll()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("admitted request %d failed: %v", i, errs[i])
		}
		if math.Float64bits(got[i][0]) != math.Float64bits(want[i]) {
			t.Fatalf("admitted score %d = %v, want offline %v", i, got[i][0], want[i])
		}
	}
	// The admission gauge returns to zero once traffic drains.
	waitFor(t, "pending gauge to drain", func() bool { return s.pending.Load() == 0 })
}

// TestShedRequestsDoNotPoisonBatching: after shedding, normal batched and
// single-instance traffic still answers bit-identically (the shed path
// leaves no state behind).
func TestShedRequestsDoNotPoisonBatching(t *testing.T) {
	art := testArtifact(t)
	reg := NewRegistry()
	if err := reg.Load("default", art); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), reg,
		WithWorkers(1), WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	p := parkWorkers(t, s, "default")
	pipe := s.reg.lookup("default").state.Load().pipe

	q := testQueries(art.Dim(), 5)
	want := offlineScores(t, art, q)

	// Sequence like TestQueueFullSheds429: park the worker on the first
	// request, fill the 1-deep queue with the second.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.ScoreBatch("default", [][]float64{q[0]})
	}()
	p.waitEntered(t)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = s.ScoreBatch("default", [][]float64{q[1]})
	}()
	waitFor(t, "queue saturation", func() bool { return len(pipe.queue) == 1 })
	for i := 0; i < 3; i++ { // shed a few
		resp, _ := postPredict(t, hs.URL, PredictRequest{Instances: [][]float64{q[2]}})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("shed attempt %d: status %d, want 429", i, resp.StatusCode)
		}
	}
	p.releaseAll()
	wg.Wait()

	// Batched post-shed traffic is still bit-identical.
	resp, body := postPredict(t, hs.URL, PredictRequest{Instances: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed batch status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(pr.Scores[i]) != math.Float64bits(want[i]) {
			t.Fatalf("post-shed score %d = %v, want %v", i, pr.Scores[i], want[i])
		}
	}
}
