//go:build loadsmoke

// Load smoke (make load-smoke): a saturating client fleet drives the
// multi-model server through a live hot-swap and asserts the two serving
// SLOs the package documents: zero dropped admitted requests (every 2xx
// carries a score bit-identical to one model generation, every shed is a
// well-formed 429/503 with Retry-After, nothing else ever comes back) and
// a p99 latency bound on admitted requests. Tag-gated out of `go test
// ./...` because it hammers the CPU for a couple of seconds by design.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// p99Bound is deliberately generous: the batch scoring itself is
// microseconds, but CI boxes stall; the bound catches pathologies (a
// request stuck behind a swap, a drain dropping work), not jitter.
const p99Bound = 2 * time.Second

func TestLoadSmokeSaturationAcrossHotSwap(t *testing.T) {
	artA := testArtifactSeed(t, 11)
	artB := testArtifactSeed(t, 23)
	q := testQueries(artA.Dim(), 1)
	wantA := math.Float64bits(offlineScores(t, artA, q)[0])
	wantB := math.Float64bits(offlineScores(t, artB, q)[0])
	if wantA == wantB {
		t.Fatal("A and B score identically; the swap would be unobservable")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "m.iotml")
	saveAtomic(t, artA, path)

	// Small queues so the fleet genuinely sheds, and a short reload so the
	// swap lands mid-run.
	s, err := New(context.Background(), NewRegistry(),
		WithModelDir(dir),
		WithReloadInterval(20*time.Millisecond),
		WithWorkers(1),
		WithMaxBatch(4),
		WithQueueDepth(2),
		WithGlobalQueueDepth(32))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	// Scoring a one-row batch is microseconds — far too fast for 16 clients
	// to ever fill a 2-deep queue — so throttle generation A's single worker
	// with the test hook (installed before any traffic, so the write
	// happens-before the first job's channel send): ~10ms per 4-job batch is
	// a service rate of ~400 jobs/s against thousands/s of demand, which
	// keeps the queue pinned full. Generation B comes up unthrottled, which
	// is exactly what a hot-swap under load looks like: the backlog drains
	// and shedding stops.
	if e := s.reg.lookup("m"); e != nil {
		if st := e.state.Load(); st != nil && st.pipe != nil {
			st.pipe.beforeScore = func() { time.Sleep(10 * time.Millisecond) }
		}
	}

	raw, err := json.Marshal(PredictRequest{Instances: q})
	if err != nil {
		t.Fatal(err)
	}

	const (
		clients           = 16
		requestsPerClient = 300
	)
	type tally struct {
		ok, shed  int
		latencies []time.Duration
		err       error
	}
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	var swapOnce sync.Once
	swapped := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tl := &tallies[c]
			seenB := false
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < requestsPerClient; i++ {
				// Half the fleet swaps the artifact mid-run, once, from
				// request #100 of client 0 — well inside the saturation.
				if c == 0 && i == 100 {
					swapOnce.Do(func() {
						saveAtomic(t, artB, path)
						close(swapped)
					})
				}
				began := time.Now()
				resp, err := client.Post(hs.URL+"/v1/models/m/predict", "application/json", bytes.NewReader(raw))
				if err != nil {
					tl.err = err
					return
				}
				body, _ := readAll(resp)
				elapsed := time.Since(began)
				switch resp.StatusCode {
				case http.StatusOK:
					var pr PredictResponse
					if err := json.Unmarshal(body, &pr); err != nil {
						tl.err = err
						return
					}
					got := math.Float64bits(pr.Scores[0])
					switch got {
					case wantA:
						if seenB {
							tl.err = fmt.Errorf("client %d: A's score after B's — non-monotonic switchover", c)
							return
						}
					case wantB:
						seenB = true
					default:
						tl.err = fmt.Errorf("client %d: score from neither generation", c)
						return
					}
					tl.ok++
					tl.latencies = append(tl.latencies, elapsed)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						tl.err = fmt.Errorf("client %d: shed %d without Retry-After", c, resp.StatusCode)
						return
					}
					tl.shed++
				default:
					tl.err = fmt.Errorf("client %d: unexpected status %d: %s", c, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	var ok, shed int
	var latencies []time.Duration
	for c := range tallies {
		if tallies[c].err != nil {
			t.Fatal(tallies[c].err)
		}
		ok += tallies[c].ok
		shed += tallies[c].shed
		latencies = append(latencies, tallies[c].latencies...)
	}
	total := clients * requestsPerClient
	if ok+shed != total {
		t.Fatalf("accounting broken: %d ok + %d shed != %d sent (dropped admitted requests?)", ok, shed, total)
	}
	if ok == 0 {
		t.Fatal("no request was ever admitted")
	}
	select {
	case <-swapped:
	default:
		t.Fatal("the hot-swap never happened during the run")
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	if p99 > p99Bound {
		t.Fatalf("p99 admitted latency %v exceeds the %v bound", p99, p99Bound)
	}

	// The registry must have landed on B with zero reload errors for the
	// well-formed artifact.
	fpB := fingerprintOf(t, artB)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if fp, ok := s.Registry().Fingerprint("m"); ok && fp == fpB {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("registry never published B's fingerprint")
		}
		time.Sleep(10 * time.Millisecond)
	}

	m, _ := s.SnapshotModel("m")
	t.Logf("load-smoke: %d admitted (p99 %v), %d shed, %d swaps, %d batches (max size %d)",
		ok, p99, shed, m.Swaps, m.Batches, m.MaxBatchSize)
	if shed == 0 {
		t.Error("the fleet never saturated the 2-deep queue — the throttle should make shedding certain")
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
