package distsearch

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mkl"
	"repro/internal/partition"
	"repro/internal/retry"
)

// The fault matrix: for every fleet size × evaluator parallelism ×
// injected failure × strategy (a best-of-chain sweep, and the budgeted
// search whose approximate sweep runs on the fleet), the distributed
// search must select the bit-identical partition and score the sequential
// in-process search selects — worker loss, hangs, and corrupt results
// cost retries and re-dispatches, never correctness. Workers run
// in-process through LoopbackTransport (real WorkerServer semantics —
// evaluator caches, fingerprint echo — without sockets), wrapped in FaultTransport for scripted failures; the HTTP
// layer is exercised end to end by internal/core's distributed fit test
// and scripts/dist_smoke.sh.

// fastBackoff keeps retry sleeps out of the test budget.
var fastBackoff = retry.Policy{Base: time.Millisecond, Max: time.Millisecond, Jitter: 1e-9}

// newFleet builds n loopback workers and the transport addressing them.
func newFleet(n, parallelism int) ([]string, *LoopbackTransport) {
	lt := &LoopbackTransport{Workers: map[string]*WorkerServer{}}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("worker-%d", i)
		lt.Workers[addrs[i]] = &WorkerServer{Parallelism: parallelism}
	}
	return addrs, lt
}

// watchFallback wires coord's shard-lifecycle events into next (nil for
// none) and returns a func reporting whether any batch fell back to local
// scoring, i.e. whether the dist-fallback event fired.
func watchFallback(coord *Coordinator, next func(mkl.EventKind, string)) func() bool {
	var fell atomic.Bool
	coord.SetEmitter(func(kind mkl.EventKind, detail string) {
		if kind == mkl.EventDistFallback {
			fell.Store(true)
		}
		if next != nil {
			next(kind, detail)
		}
	})
	return fell.Load
}

// scoredBy reports how many shard score calls reached addr's real worker.
func scoredBy(ft *FaultTransport, addr string) int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.scored[addr]
}

// shardContains reports whether a shard carries the anchor candidate —
// faults keyed by shard *content* fire at the same logical point
// regardless of which worker claims the shard.
func shardContains(keys []string, key string) bool {
	for _, k := range keys {
		if k == key {
			return true
		}
	}
	return false
}

func TestFaultMatrixSelectionBitIdentical(t *testing.T) {
	d := testData(t)
	spec := Spec{CVSeed: 1}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	seed, _, err := mkl.SeedFromRoughSet(d, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The sequential ground truth, per strategy.
	type truth struct {
		best  partition.Partition
		score float64
		evals int
	}
	sequential := func(cfg mkl.Config, run func(e *mkl.Evaluator) (*mkl.Result, error)) truth {
		seqCfg := cfg
		seqCfg.Parallelism = 1
		e, err := mkl.NewEvaluator(d, seqCfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(e)
		if err != nil {
			t.Fatal(err)
		}
		return truth{res.Best, res.Score, res.Evaluations}
	}
	chain := func(e *mkl.Evaluator, s partition.Partition) (*mkl.Result, error) {
		return mkl.ChainSearch(e, s, mkl.BestOfChain)
	}

	// The budgeted search sweeps on a Nyström evaluator — the one that
	// goes through the fleet — and re-scores its top 4 exactly on that
	// evaluator, in-process.
	approxSpec := Spec{CVSeed: 1, Backend: "nystrom:16"}
	approxCfg, err := approxSpec.Config()
	if err != nil {
		t.Fatal(err)
	}
	budgeted := func(approx *mkl.Evaluator, _ int) (*mkl.Result, error) {
		return mkl.BudgetedSearch(approx, seed, chain, 4)
	}

	strategies := []struct {
		name  string
		spec  Spec
		cfg   mkl.Config
		run   func(e *mkl.Evaluator, parallelism int) (*mkl.Result, error)
		truth truth
	}{
		{"chain", spec, cfg, func(e *mkl.Evaluator, _ int) (*mkl.Result, error) { return chain(e, seed) },
			sequential(cfg, func(e *mkl.Evaluator) (*mkl.Result, error) { return chain(e, seed) })},
		{"budgeted", approxSpec, approxCfg, budgeted,
			sequential(approxCfg, func(e *mkl.Evaluator) (*mkl.Result, error) { return budgeted(e, 1) })},
	}

	// anchorKey is a mid-chain candidate: the shard carrying it draws the
	// fault, wherever it lands.
	anchorKey := func() string {
		e, err := mkl.NewEvaluator(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mkl.ChainSearch(e, seed, mkl.BestOfChain)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace[len(res.Trace)/2].Partition.Key()
	}()

	// Each fault case gets the shard deadline it needs. Only the hang must
	// outlast one: it keeps the short deadline so the run stays fast. The
	// others get one no healthy shard attempt reaches on a loaded host, so
	// a slow but live worker is never marked down and the fallback
	// assertion follows the injected fault, not the host's load.
	const hangDeadline, healthyDeadline = 100 * time.Millisecond, time.Minute
	faults := []struct {
		name   string
		decide func() func(addr string, keys []string) Fault
		// deadline bounds each shard attempt.
		deadline time.Duration
		// wantFallback pins the graceful-degradation path.
		wantFallback func(fleet int) bool
	}{
		{
			name:         "clean",
			decide:       func() func(string, []string) Fault { return nil },
			deadline:     healthyDeadline,
			wantFallback: func(int) bool { return false },
		},
		{
			// The first worker to claim the anchor shard is SIGKILLed
			// mid-sweep: its shard re-dispatches to a peer (or falls back
			// locally on a fleet of one). The transport keeps the kill
			// sticky, so the victim stays dead for the rest of the run.
			name: "worker-killed-mid-shard",
			decide: func() func(string, []string) Fault {
				victim := "" // Decide runs under the transport lock
				return func(addr string, keys []string) Fault {
					if victim == "" && shardContains(keys, anchorKey) {
						victim = addr
						return FaultKill
					}
					return FaultNone
				}
			},
			deadline:     healthyDeadline,
			wantFallback: func(fleet int) bool { return fleet == 1 },
		},
		{
			// One worker hangs past the deadline on every score call: it
			// burns its retry budget, is marked down, and the fleet (or
			// the local fallback) absorbs its shards.
			name: "worker-hangs-past-deadline",
			decide: func() func(string, []string) Fault {
				return func(addr string, keys []string) Fault {
					if addr == "worker-0" {
						return FaultHang
					}
					return FaultNone
				}
			},
			deadline:     hangDeadline,
			wantFallback: func(fleet int) bool { return fleet == 1 },
		},
		{
			// One worker echoes a corrupt fingerprint: every result it
			// returns is rejected, so it contributes nothing and is
			// eventually marked down — mismatched results never reach the
			// reduction.
			name: "corrupt-fingerprint",
			decide: func() func(string, []string) Fault {
				return func(addr string, keys []string) Fault {
					if addr == "worker-0" {
						return FaultCorrupt
					}
					return FaultNone
				}
			},
			deadline:     healthyDeadline,
			wantFallback: func(fleet int) bool { return fleet == 1 },
		},
		{
			// The whole fleet dies on first contact: the coordinator
			// degrades to local scoring and the fit still completes.
			name: "all-workers-dead",
			decide: func() func(string, []string) Fault {
				return func(string, []string) Fault { return FaultKill }
			},
			deadline:     healthyDeadline,
			wantFallback: func(int) bool { return true },
		},
	}

	for _, fleet := range []int{1, 2, 4} {
		for _, parallelism := range []int{1, 2, 8} {
			for _, fault := range faults {
				name := fmt.Sprintf("fleet=%d/workers=%d/%s", fleet, parallelism, fault.name)
				t.Run(name, func(t *testing.T) {
					for _, strat := range strategies {
						t.Run(strat.name, func(t *testing.T) {
							addrs, lt := newFleet(fleet, parallelism)
							ft := &FaultTransport{Inner: lt, Decide: fault.decide()}
							coord, err := NewCoordinator(d, Options{
								Workers:   addrs,
								Spec:      strat.spec,
								Deadline:  fault.deadline,
								Attempts:  2,
								Backoff:   fastBackoff,
								Seed:      42,
								Transport: ft,
							})
							if err != nil {
								t.Fatal(err)
							}
							distCfg := strat.cfg
							distCfg.Parallelism = parallelism
							e, err := mkl.NewEvaluator(d, distCfg)
							if err != nil {
								t.Fatal(err)
							}
							fellBack := watchFallback(coord, e.EmitDistEvent)
							e.SetScorer(coord)
							res, err := strat.run(e, parallelism)
							if err != nil {
								t.Fatalf("distributed search failed under %s: %v", fault.name, err)
							}
							want := strat.truth
							if !res.Best.Equal(want.best) || res.Score != want.score || res.Evaluations != want.evals {
								t.Fatalf("selected (%v, %v) in %d evaluations, sequential selects (%v, %v) in %d",
									res.Best, res.Score, res.Evaluations, want.best, want.score, want.evals)
							}
							if got, want := fellBack(), fault.wantFallback(fleet); got != want {
								t.Fatalf("fell back = %v, want %v", got, want)
							}
						})
					}
				})
			}
		}
	}

	// The other strategies ride the same scorer: spot-check greedy and
	// exhaustive match their sequential twins through a clean fleet. The
	// rough-set seed frees too many features for an exhaustive cone
	// (Bell(16) candidates), so these two get a seed with a 4-element
	// free block — Bell(4) = 15 candidates.
	t.Run("greedy+exhaustive/clean", func(t *testing.T) {
		assign := make([]int, d.D())
		for i := range assign {
			if i < 4 {
				assign[i] = 0
			} else {
				assign[i] = i - 3
			}
		}
		seed := partition.FromRGS(assign)
		greedyTruth := sequential(cfg, func(e *mkl.Evaluator) (*mkl.Result, error) {
			return mkl.GreedyRefine(e, seed)
		})
		exhaustiveTruth := sequential(cfg, func(e *mkl.Evaluator) (*mkl.Result, error) {
			return mkl.ExhaustiveCone(e, seed)
		})
		addrs, lt := newFleet(2, 2)
		coord, err := NewCoordinator(d, Options{
			Workers: addrs, Spec: spec, Backoff: fastBackoff, Seed: 42, Transport: lt,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := mkl.NewEvaluator(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetScorer(coord)
		if res, err := mkl.GreedyRefine(e, seed); err != nil {
			t.Fatal(err)
		} else if !res.Best.Equal(greedyTruth.best) || res.Score != greedyTruth.score {
			t.Fatalf("greedy selected (%v, %v), sequential (%v, %v)", res.Best, res.Score, greedyTruth.best, greedyTruth.score)
		}
		e2, err := mkl.NewEvaluator(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e2.SetScorer(coord)
		if res, err := mkl.ExhaustiveCone(e2, seed); err != nil {
			t.Fatal(err)
		} else if !res.Best.Equal(exhaustiveTruth.best) || res.Score != exhaustiveTruth.score {
			t.Fatalf("exhaustive selected (%v, %v), sequential (%v, %v)", res.Best, res.Score, exhaustiveTruth.best, exhaustiveTruth.score)
		}
	})
}

// TestDeadWorkerShardRedispatches pins the redistribution accounting: on
// a two-worker fleet with one worker killed mid-sweep, the surviving
// worker (plus cache hits) covers every candidate — nothing is silently
// dropped, and the kill shows up in the progress stream as worker-down.
func TestDeadWorkerShardRedispatches(t *testing.T) {
	d := testData(t)
	spec := Spec{CVSeed: 1}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	seed, _, err := mkl.SeedFromRoughSet(d, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	addrs, lt := newFleet(2, 1)
	victim := "" // Decide runs under the transport lock
	ft := &FaultTransport{Inner: lt, Decide: func(addr string, keys []string) Fault {
		if victim == "" {
			victim = addr
			return FaultKill
		}
		return FaultNone
	}}
	coord, err := NewCoordinator(d, Options{
		Workers: addrs, Spec: spec, Backoff: fastBackoff, Attempts: 2, Seed: 42, Transport: ft,
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	fellBack := watchFallback(coord, func(kind mkl.EventKind, detail string) {
		events = append(events, kind.String()+": "+detail)
	})
	e, err := mkl.NewEvaluator(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetScorer(coord)
	res, err := mkl.ChainSearch(e, seed, mkl.BestOfChain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.N() == 0 {
		t.Fatal("no selection")
	}
	if fellBack() {
		t.Fatal("fell back locally with a live peer available")
	}
	if victim == "" {
		t.Fatal("no score call ever reached the transport")
	}
	survivor := addrs[0]
	if survivor == victim {
		survivor = addrs[1]
	}
	if n := scoredBy(ft, victim); n != 0 {
		t.Fatalf("killed worker scored %d shards", n)
	}
	if scoredBy(ft, survivor) == 0 {
		t.Fatal("surviving worker scored nothing")
	}
	joined := strings.Join(events, "\n")
	if !strings.Contains(joined, "worker-down") {
		t.Fatalf("progress stream has no worker-down event:\n%s", joined)
	}
	if !strings.Contains(joined, "shard-redispatched") {
		t.Fatalf("progress stream has no shard-redispatched event:\n%s", joined)
	}
}

// TestWorkerRestartReinstallsJob: a worker that lost its job (restart,
// eviction) answers unknown-job; the coordinator re-installs and the
// shard succeeds on the retry rather than failing the worker.
func TestWorkerRestartReinstallsJob(t *testing.T) {
	d := testData(t)
	spec := Spec{CVSeed: 1}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	seed, _, err := mkl.SeedFromRoughSet(d, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	addrs, lt := newFleet(1, 1)
	coord, err := NewCoordinator(d, Options{
		Workers: addrs, Spec: spec, Backoff: fastBackoff, Attempts: 3, Seed: 42, Transport: lt,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := mkl.NewEvaluator(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Score one batch so the job is installed, then "restart" the worker.
	_, errs := coord.ScoreCandidates(context.Background(), []partition.Partition{seed})
	for _, serr := range errs {
		if serr != nil {
			t.Fatalf("priming batch failed: %v", serr)
		}
	}
	lt.Workers[addrs[0]] = &WorkerServer{Parallelism: 1}
	fellBack := watchFallback(coord, nil)
	e.SetScorer(coord)
	res, err := mkl.ChainSearch(e, seed, mkl.BestOfChain)
	if err != nil {
		t.Fatalf("search after worker restart failed: %v", err)
	}
	if fellBack() {
		t.Fatal("fell back instead of re-installing the job")
	}
	if res.Best.N() == 0 {
		t.Fatal("no selection")
	}
}
