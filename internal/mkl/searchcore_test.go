package mkl_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/distsearch"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/mkl"
	"repro/internal/partition"
	"repro/internal/retry"
	"repro/internal/stats"
)

// The search-core contract, asserted from outside the package so the
// distributed column can run a real (loopback) distsearch fleet: every
// strategy selects, traces and streams bit-identically whether its
// candidates are scored sequentially, on an in-process pool, or across a
// worker fleet.

// searchCoreData builds an m-feature two-class dataset (the first half of
// the features informative), small enough for a Bell(6) cone.
func searchCoreData(m, n int, seed int64) *dataset.Dataset {
	rng := stats.NewRNG(seed)
	d := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		y := 1
		if rng.Float64() < 0.5 {
			y = -1
		}
		row := make([]float64, m)
		for j := 0; j < m; j++ {
			if j < (m+1)/2 {
				row[j] = float64(y)*0.8 + rng.NormFloat64()*0.5
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	return d
}

// candidateEvent is a candidate-stream event without its wall-clock stamp.
type candidateEvent struct {
	kind  mkl.EventKind
	part  string
	score float64
	best  string
	bestS float64
	evals int
}

// loopbackFleet returns a coordinator over n in-process workers.
func loopbackFleet(t testing.TB, d *dataset.Dataset, spec distsearch.Spec, n int, transport func(distsearch.Transport) distsearch.Transport) *distsearch.Coordinator {
	t.Helper()
	lt := &distsearch.LoopbackTransport{Workers: map[string]*distsearch.WorkerServer{}}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("worker-%d", i)
		lt.Workers[addrs[i]] = &distsearch.WorkerServer{Parallelism: 2}
	}
	var tr distsearch.Transport = lt
	if transport != nil {
		tr = transport(lt)
	}
	coord, err := distsearch.NewCoordinator(d, distsearch.Options{
		Workers:   addrs,
		Spec:      spec,
		Backoff:   retry.Policy{Base: time.Millisecond, Max: time.Millisecond, Jitter: 1e-9},
		Seed:      42,
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestSearchCoreDeterminism is the table of the search core: rows are the
// strategies, columns the scorers. Every cell must reproduce the P=1
// cell's Best, Score, Trace and candidate-event stream bit for bit. The
// P=1 cell must evaluate exactly the sequential candidate count (the
// paper's cost unit), recorded from the sequential implementation; the
// searches that never stop early match it in every cell, the stoppable
// ones may only exceed it.
func TestSearchCoreDeterminism(t *testing.T) {
	d := searchCoreData(8, 50, 17)
	coarsest := partition.Coarsest(d.D())
	twoBlock := partition.MustFromBlocks(d.D(), [][]int{{1, 2}, {3, 4, 5, 6, 7, 8}})
	rows := []struct {
		name  string
		spec  distsearch.Spec
		run   func(e *mkl.Evaluator) (*mkl.Result, error)
		evals int  // sequential Evaluations
		exact bool // every cell evaluates exactly the sequential candidates
	}{
		{"chain-best", distsearch.Spec{CVSeed: 3}, func(e *mkl.Evaluator) (*mkl.Result, error) {
			return mkl.ChainSearch(e, coarsest, mkl.BestOfChain)
		}, 8, true},
		{"chain-first", distsearch.Spec{CVSeed: 5, Objective: "alignment"}, func(e *mkl.Evaluator) (*mkl.Result, error) {
			return mkl.ChainSearch(e, coarsest, mkl.FirstImprovement)
		}, 5, false},
		{"exhaustive", distsearch.Spec{CVSeed: 1, Objective: "alignment"}, func(e *mkl.Evaluator) (*mkl.Result, error) {
			return mkl.ExhaustiveCone(e, twoBlock)
		}, 203, true},
		{"greedy", distsearch.Spec{CVSeed: 9, Objective: "alignment"}, func(e *mkl.Evaluator) (*mkl.Result, error) {
			return mkl.GreedyRefine(e, coarsest)
		}, 12, false},
	}
	columns := []struct {
		name        string
		parallelism int
		fleet       bool
	}{
		{"P=1", 1, false},
		{"P=2", 2, false},
		{"P=8", 8, false},
		{"fleet=2", 1, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var want *mkl.Result
			var wantEvents []candidateEvent
			for _, col := range columns {
				cfg, err := row.spec.Config()
				if err != nil {
					t.Fatal(err)
				}
				cfg.Parallelism = col.parallelism
				var events []candidateEvent
				cfg.Progress = func(ev mkl.Event) {
					if ev.Kind == mkl.EventCandidateEvaluated || ev.Kind == mkl.EventBestImproved {
						events = append(events, candidateEvent{ev.Kind, ev.Partition.String(), ev.Score, ev.Best.String(), ev.BestScore, ev.Evaluations})
					}
				}
				e, err := mkl.NewEvaluator(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if col.fleet {
					e.SetScorer(loopbackFleet(t, d, row.spec, 2, nil))
				}
				got, err := row.run(e)
				if err != nil {
					t.Fatalf("%s: %v", col.name, err)
				}
				if got.Evaluations < row.evals || (got.Evaluations != row.evals && (row.exact || want == nil)) {
					t.Errorf("%s: %d evaluations, the sequential search costs %d", col.name, got.Evaluations, row.evals)
				}
				if want == nil {
					want, wantEvents = got, events
					continue
				}
				if !got.Best.Equal(want.Best) || got.Score != want.Score {
					t.Errorf("%s: selected (%v, %v), P=1 selects (%v, %v)", col.name, got.Best, got.Score, want.Best, want.Score)
				}
				if len(got.Trace) != len(want.Trace) {
					t.Fatalf("%s: trace length %d, P=1 %d", col.name, len(got.Trace), len(want.Trace))
				}
				for i := range want.Trace {
					if !got.Trace[i].Partition.Equal(want.Trace[i].Partition) || got.Trace[i].Score != want.Trace[i].Score {
						t.Fatalf("%s: trace[%d] = %v, P=1 %v", col.name, i, got.Trace[i], want.Trace[i])
					}
				}
				if len(events) != len(wantEvents) {
					t.Fatalf("%s: %d candidate events, P=1 emitted %d", col.name, len(events), len(wantEvents))
				}
				for i := range events {
					if events[i] != wantEvents[i] {
						t.Fatalf("%s: event %d = %+v, P=1 %+v", col.name, i, events[i], wantEvents[i])
					}
				}
			}
		})
	}
}

// cancellingTrainer cancels a context after a fixed number of Train calls,
// simulating an abort landing mid-search from inside candidate evaluation.
// Embedding the Trainer interface (not a concrete scratch trainer) pins the
// evaluator to the reference CV path, so Train is what gets called.
type cancellingTrainer struct {
	kernelmachine.Trainer
	cancel context.CancelFunc
	calls  *atomic.Int64
	after  int64
}

func (c cancellingTrainer) Train(gram *linalg.Matrix, y []int) (kernelmachine.Model, error) {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.Trainer.Train(gram, y)
}

// TestSearchCancellationReturnsPartialResult: cancelling mid-search at
// workers {1,2,8} and on a two-worker loopback fleet aborts within one
// candidate evaluation (one shard round on the fleet), returns the partial
// result with an error wrapping ctx.Err(), and leaks no goroutines — no
// pool worker and no coordinator pump (checked under -race in CI).
func TestSearchCancellationReturnsPartialResult(t *testing.T) {
	cfg := dataset.DefaultBiometricConfig()
	cfg.N = 60
	d := dataset.SyntheticBiometric(cfg, stats.NewRNG(1))
	d.Standardize()
	seed := partition.Coarsest(d.D())
	spec := distsearch.Spec{CVSeed: 1}

	// Full search for reference: how many evaluations does the chain cost?
	ref, err := mkl.NewEvaluator(d, mkl.Config{Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := mkl.ChainSearch(ref, seed, mkl.BestOfChain)
	if err != nil {
		t.Fatal(err)
	}

	// Each column builds an evaluator whose search cancels itself midway.
	type column struct {
		name  string
		build func(t *testing.T, cancel context.CancelFunc) *mkl.Evaluator
	}
	var columns []column
	for _, workers := range []int{1, 2, 8} {
		columns = append(columns, column{fmt.Sprintf("workers=%d", workers), func(t *testing.T, cancel context.CancelFunc) *mkl.Evaluator {
			var calls atomic.Int64
			e, err := mkl.NewEvaluator(d, mkl.Config{
				Seed: 1, Parallelism: workers,
				Trainer: cancellingTrainer{
					Trainer: kernelmachine.Ridge{Lambda: 1e-2},
					cancel:  cancel, calls: &calls, after: 6,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}})
	}
	columns = append(columns, column{"fleet=2", func(t *testing.T, cancel context.CancelFunc) *mkl.Evaluator {
		local, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		e, err := mkl.NewEvaluator(d, local)
		if err != nil {
			t.Fatal(err)
		}
		// The third shard dispatch cancels the sweep while the pumps are
		// still working through the batch.
		dispatches := 0 // Decide runs under the transport lock
		e.SetScorer(loopbackFleet(t, d, spec, 2, func(inner distsearch.Transport) distsearch.Transport {
			return &distsearch.FaultTransport{Inner: inner, Decide: func(string, []string) distsearch.Fault {
				if dispatches++; dispatches == 3 {
					cancel()
				}
				return distsearch.FaultNone
			}}
		}))
		return e
	}})

	for _, col := range columns {
		t.Run(col.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e := col.build(t, cancel)
			e.SetContext(ctx)
			res, err := mkl.ChainSearch(e, seed, mkl.BestOfChain)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("cancelled search returned no partial result")
			}
			if len(res.Trace) >= len(full.Trace) || res.Evaluations >= full.Evaluations {
				t.Fatalf("cancelled search still evaluated the whole chain (%d steps, %d evaluations)", len(res.Trace), res.Evaluations)
			}
			t.Logf("partial result: %d of %d candidates traced, %d evaluations", len(res.Trace), len(full.Trace), res.Evaluations)
			// The partial trace is the canonical prefix of the full search.
			for i, step := range res.Trace {
				if !step.Partition.Equal(full.Trace[i].Partition) || step.Score != full.Trace[i].Score {
					t.Fatalf("partial trace diverges at %d: %v vs %v", i, step, full.Trace[i])
				}
			}
			// Pool workers and pumps must all be gone: no leak, no deadlock.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines leaked: %d live, baseline %d", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
}
