package distsearch

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mkl"
	"repro/internal/partition"
	"repro/internal/retry"
	"repro/internal/stats"
)

// The fault matrix: for every fleet size × evaluator parallelism ×
// injected failure, the distributed search must select the bit-identical
// partition and score the sequential in-process search selects — worker
// loss, hangs, and corrupt results cost retries and re-dispatches, never
// correctness. Workers run in-process through LoopbackTransport (real
// WorkerServer semantics — evaluator caches, fingerprint echo — without
// sockets), wrapped in FaultTransport for scripted failures; the HTTP
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
	seed, _, err := mkl.SeedFromRoughSet(d, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The sequential ground truth, per strategy.
	type truth struct {
		best  partition.Partition
		score float64
	}
	sequential := func(run func(e *mkl.Evaluator) (*mkl.Result, error)) truth {
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
		return truth{res.Best, res.Score}
	}
	chainTruth := sequential(func(e *mkl.Evaluator) (*mkl.Result, error) {
		return mkl.ChainSearch(e, seed, mkl.BestOfChain)
	})

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

	faults := []struct {
		name   string
		decide func() func(addr string, keys []string) Fault
		// wantFallback pins the graceful-degradation path.
		wantFallback func(fleet int) bool
	}{
		{
			name:         "clean",
			decide:       func() func(string, []string) Fault { return nil },
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
			wantFallback: func(fleet int) bool { return fleet == 1 },
		},
		{
			// The whole fleet dies on first contact: the coordinator
			// degrades to local scoring and the fit still completes.
			name: "all-workers-dead",
			decide: func() func(string, []string) Fault {
				return func(string, []string) Fault { return FaultKill }
			},
			wantFallback: func(int) bool { return true },
		},
	}

	for _, fleet := range []int{1, 2, 4} {
		for _, parallelism := range []int{1, 2, 8} {
			for _, fault := range faults {
				name := fmt.Sprintf("fleet=%d/workers=%d/%s", fleet, parallelism, fault.name)
				t.Run(name, func(t *testing.T) {
					addrs, lt := newFleet(fleet, parallelism)
					ft := &FaultTransport{Inner: lt, Decide: fault.decide()}
					coord, err := NewCoordinator(d, Options{
						Workers:   addrs,
						Spec:      spec,
						Deadline:  100 * time.Millisecond,
						Attempts:  2,
						Backoff:   fastBackoff,
						Seed:      42,
						Transport: ft,
					})
					if err != nil {
						t.Fatal(err)
					}
					distCfg := cfg
					distCfg.Parallelism = parallelism
					e, err := mkl.NewEvaluator(d, distCfg)
					if err != nil {
						t.Fatal(err)
					}
					coord.SetEmitter(e.EmitDistEvent)
					e.SetScorer(coord)
					res, err := mkl.ChainSearch(e, seed, mkl.BestOfChain)
					if err != nil {
						t.Fatalf("distributed search failed under %s: %v", fault.name, err)
					}
					if !res.Best.Equal(chainTruth.best) || res.Score != chainTruth.score {
						t.Fatalf("selected (%v, %v), sequential selects (%v, %v)",
							res.Best, res.Score, chainTruth.best, chainTruth.score)
					}
					if got, want := coord.FellBack(), fault.wantFallback(fleet); got != want {
						t.Fatalf("FellBack() = %v, want %v", got, want)
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
		greedyTruth := sequential(func(e *mkl.Evaluator) (*mkl.Result, error) {
			return mkl.GreedyRefine(e, seed)
		})
		exhaustiveTruth := sequential(func(e *mkl.Evaluator) (*mkl.Result, error) {
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
	seed, _, err := mkl.SeedFromRoughSet(d, 3, 2, 0)
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
	coord.SetEmitter(func(kind mkl.EventKind, detail string) {
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
	if coord.FellBack() {
		t.Fatal("fell back locally with a live peer available")
	}
	if victim == "" {
		t.Fatal("no score call ever reached the transport")
	}
	survivor := addrs[0]
	if survivor == victim {
		survivor = addrs[1]
	}
	if ft.ScoredBy(victim) != 0 {
		t.Fatalf("killed worker scored %d shards", ft.ScoredBy(victim))
	}
	if ft.ScoredBy(survivor) == 0 {
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
	seed, _, err := mkl.SeedFromRoughSet(d, 3, 2, 0)
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
	e.SetScorer(coord)
	res, err := mkl.ChainSearch(e, seed, mkl.BestOfChain)
	if err != nil {
		t.Fatalf("search after worker restart failed: %v", err)
	}
	if coord.FellBack() {
		t.Fatal("fell back instead of re-installing the job")
	}
	if res.Best.N() == 0 {
		t.Fatal("no selection")
	}
}

// TestWorkerDatasetCacheSkipsReingest: the install-time dataset cache is
// keyed by the dataset-only fingerprint, so repeat jobs over the same data
// — a re-dispatch after job eviction, or a new fit with a different
// evaluator spec — skip the CSV round trip. The cache itself evicts
// oldest-first past MaxJobs.
func TestWorkerDatasetCacheSkipsReingest(t *testing.T) {
	d := testData(t)
	w := &WorkerServer{Parallelism: 1, MaxJobs: 2}
	install := func(d *dataset.Dataset, spec Spec) {
		t.Helper()
		job, err := NewJob(d, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.install(job); err != nil {
			t.Fatal(err)
		}
	}
	// Three specs over one dataset: the first install ingests, the next
	// two hit the cache even as MaxJobs=2 churns the job table.
	for i, spec := range []Spec{{CVSeed: 1}, {CVSeed: 2}, {CVSeed: 3}} {
		install(d, spec)
		if got := w.DatasetCacheHits(); got != i {
			t.Fatalf("after install %d: DatasetCacheHits = %d, want %d", i+1, got, i)
		}
	}
	// Re-installing a fingerprint the worker still holds is an idempotent
	// no-op before the cache is consulted — no extra hit.
	install(d, Spec{CVSeed: 3})
	if got := w.DatasetCacheHits(); got != 2 {
		t.Fatalf("idempotent re-install changed DatasetCacheHits to %d, want 2", got)
	}
	// Two fresh datasets fill the cache and evict d's entry; a new spec
	// over d must miss (re-ingest), not serve stale data.
	other := func(seed int64) *dataset.Dataset {
		cfg := dataset.DefaultBiometricConfig()
		cfg.N = 30
		od := dataset.SyntheticBiometric(cfg, stats.NewRNG(seed))
		od.Standardize()
		return od
	}
	install(other(21), Spec{CVSeed: 1})
	install(other(22), Spec{CVSeed: 1})
	install(d, Spec{CVSeed: 4})
	if got := w.DatasetCacheHits(); got != 2 {
		t.Fatalf("evicted dataset served from cache: DatasetCacheHits = %d, want 2", got)
	}
	// And the re-ingested entry is cached again.
	install(d, Spec{CVSeed: 5})
	if got := w.DatasetCacheHits(); got != 3 {
		t.Fatalf("re-ingested dataset not re-cached: DatasetCacheHits = %d, want 3", got)
	}
}
