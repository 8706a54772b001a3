package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/distsearch"
	"repro/internal/engine"
	"repro/internal/mkl"
	"repro/internal/retry"
)

// startWorkerFleet boots n real search-worker HTTP servers on loopback
// ports and returns their addresses; the servers drain when the test ends.
func startWorkerFleet(t *testing.T, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, n)
	for i := range addrs {
		ready := make(chan string, 1)
		errc := make(chan error, 1)
		go func() {
			errc <- distsearch.Serve(ctx, "127.0.0.1:0", &distsearch.WorkerServer{Parallelism: 2}, ready)
		}()
		select {
		case addrs[i] = <-ready:
		case err := <-errc:
			t.Fatalf("worker %d failed to start: %v", i, err)
		}
	}
	return addrs
}

var testBackoff = retry.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond, Jitter: 1e-9}

// TestFitDistributedMatchesLocal is the end-to-end determinism contract
// over the real wire: a fit sharded across live HTTP workers selects the
// bit-identical partition and score an in-process fit selects, for every
// search strategy.
func TestFitDistributedMatchesLocal(t *testing.T) {
	d := fitTestData(t)
	addrs := startWorkerFleet(t, 2)
	strategies := map[string]SearchStrategy{
		"chain":      SearchChain,
		"greedy":     SearchGreedy,
		"exhaustive": SearchExhaustive,
	}
	for name, strat := range strategies {
		t.Run(name, func(t *testing.T) {
			local, err := Fit(context.Background(), d, FitConfig{
				Search: strat,
				MKL:    mkl.Config{Seed: 1, Parallelism: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			dist, err := Fit(context.Background(), d, FitConfig{
				Search: strat,
				MKL:    mkl.Config{Seed: 1, Parallelism: 2},
				Dist: &distsearch.Options{
					Workers: addrs,
					Spec:    distsearch.Spec{CVSeed: 1},
					Backoff: testBackoff,
					Seed:    42,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !dist.Best.Equal(local.Best) || dist.Score != local.Score {
				t.Fatalf("distributed fit selected (%v, %v), local fit (%v, %v)",
					dist.Best, dist.Score, local.Best, local.Score)
			}
			if !dist.Seed.Equal(local.Seed) {
				t.Fatalf("seeds diverge: %v vs %v", dist.Seed, local.Seed)
			}
			// Greedy ships each step's whole cover set as one batch (the
			// distributed dispatch amortizes over shards), so it scores
			// past the first improvement; chain and exhaustive evaluate
			// exactly the sequential candidate set.
			if strat == SearchGreedy {
				if dist.Evaluations < local.Evaluations {
					t.Fatalf("distributed greedy evaluated %d < local %d", dist.Evaluations, local.Evaluations)
				}
			} else if dist.Evaluations != local.Evaluations {
				t.Fatalf("evaluations diverge: %d vs %d", dist.Evaluations, local.Evaluations)
			}
		})
	}
}

// TestFitDistributedDeadFleetFallsBack: a fleet of unreachable addresses
// must not fail the fit — the coordinator falls back to local scoring and
// still selects exactly what an in-process fit selects.
func TestFitDistributedDeadFleetFallsBack(t *testing.T) {
	d := fitTestData(t)
	local, err := Fit(context.Background(), d, FitConfig{
		Search: SearchChain,
		MKL:    mkl.Config{Seed: 1, Parallelism: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Fit(context.Background(), d, FitConfig{
		Search: SearchChain,
		MKL:    mkl.Config{Seed: 1, Parallelism: 2},
		Dist: &distsearch.Options{
			Workers:  []string{"127.0.0.1:9", "127.0.0.1:13"},
			Spec:     distsearch.Spec{CVSeed: 1},
			Deadline: 500 * time.Millisecond,
			Attempts: 1,
			Backoff:  testBackoff,
			Seed:     42,
		},
	})
	if err != nil {
		t.Fatalf("fit with a dead fleet failed instead of falling back: %v", err)
	}
	if !dist.Best.Equal(local.Best) || dist.Score != local.Score {
		t.Fatalf("fallback fit selected (%v, %v), local fit (%v, %v)",
			dist.Best, dist.Score, local.Best, local.Score)
	}
}

// TestFitDistributedBudgetedMatchesLocal: budgeted mode composes with the
// fleet. The approximate sweep scores through the coordinator and the
// fit's evaluator re-scores the top K exactly in-process, so a budgeted fit
// over real HTTP workers — live, or all dead and declined to the fit's own
// pool — equals the in-process budgeted fit in Best, Score and Evaluations.
func TestFitDistributedBudgetedMatchesLocal(t *testing.T) {
	d := fitTestData(t)
	budget := mkl.Config{Seed: 1, Parallelism: 2, Backend: engine.Nystrom(16)}
	local, err := Fit(context.Background(), d, FitConfig{BudgetTopK: 4, MKL: budget})
	if err != nil {
		t.Fatal(err)
	}
	fleets := map[string]struct {
		opts     distsearch.Options
		fallback bool
	}{
		"fleet": {opts: distsearch.Options{Workers: startWorkerFleet(t, 2)}},
		"dead-fleet": {opts: distsearch.Options{
			Workers:  []string{"127.0.0.1:9", "127.0.0.1:13"},
			Deadline: 500 * time.Millisecond,
			Attempts: 1,
		}, fallback: true},
	}
	for name, fleet := range fleets {
		t.Run(name, func(t *testing.T) {
			opts := fleet.opts
			opts.Spec = distsearch.Spec{CVSeed: 1, Backend: "nystrom:16"}
			opts.Backoff = testBackoff
			opts.Seed = 42
			cfg := budget
			fellBack := false
			cfg.Progress = func(ev mkl.Event) { fellBack = fellBack || ev.Kind == mkl.EventDistFallback }
			dist, err := Fit(context.Background(), d, FitConfig{BudgetTopK: 4, MKL: cfg, Dist: &opts})
			if err != nil {
				t.Fatal(err)
			}
			if fellBack != fleet.fallback {
				t.Fatalf("dist-fallback emitted = %v, want %v", fellBack, fleet.fallback)
			}
			if !dist.Best.Equal(local.Best) || dist.Score != local.Score || dist.Evaluations != local.Evaluations {
				t.Fatalf("distributed budgeted fit selected (%v, %v) in %d evaluations, local (%v, %v) in %d",
					dist.Best, dist.Score, dist.Evaluations, local.Best, local.Score, local.Evaluations)
			}
		})
	}
}

// TestFitDistributedEmitsDistEvents: the progress stream carries the
// distributed lifecycle (dispatches at minimum) alongside the ordinary
// candidate events, and the candidate/best sub-stream stays identical to
// a local fit's.
func TestFitDistributedEmitsDistEvents(t *testing.T) {
	d := fitTestData(t)
	addrs := startWorkerFleet(t, 1)
	var localCands, distCands []string
	var dispatched int
	collect := func(cands *[]string, dispatchCount *int) func(mkl.Event) {
		return func(ev mkl.Event) {
			switch ev.Kind {
			case mkl.EventCandidateEvaluated, mkl.EventBestImproved:
				*cands = append(*cands, fmt.Sprintf("%s %s %v", ev.Kind, ev.Partition, ev.Score))
			case mkl.EventShardDispatched:
				if dispatchCount != nil {
					*dispatchCount++
				}
			}
		}
	}
	if _, err := Fit(context.Background(), d, FitConfig{
		Search: SearchChain,
		MKL:    mkl.Config{Seed: 1, Progress: collect(&localCands, nil)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(context.Background(), d, FitConfig{
		Search: SearchChain,
		MKL:    mkl.Config{Seed: 1, Progress: collect(&distCands, &dispatched)},
		Dist: &distsearch.Options{
			Workers: addrs,
			Spec:    distsearch.Spec{CVSeed: 1},
			Backoff: testBackoff,
			Seed:    42,
		},
	}); err != nil {
		t.Fatal(err)
	}
	if dispatched == 0 {
		t.Fatal("no shard-dispatched events reached the progress stream")
	}
	if len(localCands) != len(distCands) {
		t.Fatalf("candidate streams diverge: %d local vs %d distributed events", len(localCands), len(distCands))
	}
	for i := range localCands {
		if localCands[i] != distCands[i] {
			t.Fatalf("candidate event %d diverges:\nlocal: %s\ndist:  %s", i, localCands[i], distCands[i])
		}
	}
}
