package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusExposition drives some traffic and pins the scrape format:
// text exposition content type, server gauges, and per-model labelled
// counter families in deterministic order.
func TestPrometheusExposition(t *testing.T) {
	s, hs, art := newTestServer(t)
	q := testQueries(art.Dim(), 3)
	if _, err := s.ScoreBatch("default", q); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE iotml_uptime_seconds gauge",
		"iotml_models 1",
		"iotml_pending_requests 0",
		"iotml_reload_errors_total 0",
		"# TYPE iotml_requests_total counter",
		`iotml_requests_total{model="default"} 1`,
		`iotml_instances_total{model="default"} 3`,
		`iotml_shed_total{model="default"} 0`,
		`iotml_swaps_total{model="default"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestSnapshotDuringHotSwapRace scrapes metrics (HTTP and API) while a
// tight loop hot-swaps the model — run under -race this pins that swaps
// and copy-on-read snapshots never tear.
func TestSnapshotDuringHotSwapRace(t *testing.T) {
	artA := testArtifactSeed(t, 11)
	artB := testArtifactSeed(t, 23)
	reg := NewRegistry()
	if err := reg.Load("m", artA); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), reg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	const swaps = 60
	q := testQueries(artA.Dim(), 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Scraper: HTTP exposition + API snapshots + model info.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(hs.URL + "/v1/metrics")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			_ = s.Registry().Snapshot()
			_ = s.Totals()
			_, _ = reg.Info("m")
		}
	}()

	// Traffic: predictions racing the swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = s.ScoreBatch("m", q)
		}
	}()

	for i := 0; i < swaps; i++ {
		art := artA
		if i%2 == 0 {
			art = artB
		}
		if err := reg.Load("m", art); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	m, ok := s.SnapshotModel("m")
	if !ok {
		t.Fatal("model lost its metrics across swaps")
	}
	if m.Swaps != swaps {
		t.Fatalf("swap counter %d, want %d (counters must survive swaps)", m.Swaps, swaps)
	}
}

// TestTotalsAggregatesAcrossModels pins the fleet-level roll-up.
func TestTotalsAggregatesAcrossModels(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Load("alpha", testArtifactSeed(t, 11)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("beta", testArtifactSeed(t, 23)); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	q := testQueries(testArtifactSeed(t, 11).Dim(), 2)
	if _, err := s.ScoreBatch("alpha", q); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScoreBatch("beta", q[:1]); err != nil {
		t.Fatal(err)
	}
	tot := s.Totals()
	if tot.Requests != 2 {
		t.Fatalf("total requests %d, want 2", tot.Requests)
	}
	if tot.Instances != 3 {
		t.Fatalf("total instances %d, want 3", tot.Instances)
	}
	per := s.Registry().Snapshot()
	if per["alpha"].Instances != 2 || per["beta"].Instances != 1 {
		t.Fatalf("per-model snapshot = %+v", per)
	}
}
