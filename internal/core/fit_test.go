package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mkl"
	"repro/internal/stats"
)

// fitTestData is small enough that the exhaustive cone (Bell of the free
// block) stays cheap: 8 features with a 2-feature rough-set seed leaves a
// 6-element free block, Bell(6) = 203 candidates.
func fitTestData(t testing.TB) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultBiometricConfig()
	cfg.N = 60
	cfg.NoiseFeatures = 2
	d := dataset.SyntheticBiometric(cfg, stats.NewRNG(7))
	d.Standardize()
	return d
}

// TestFitSelectionIdenticalAcrossWorkers is the parallel-determinism
// contract of Fit: at every search strategy and worker count it selects
// the same partition, score, and rough-set seed as the sequential
// (Parallelism=1) fit (CI runs this on every push).
func TestFitSelectionIdenticalAcrossWorkers(t *testing.T) {
	d := fitTestData(t)
	strategies := map[string]SearchStrategy{
		"chain":      SearchChain,
		"greedy":     SearchGreedy,
		"exhaustive": SearchExhaustive,
	}
	for name, strat := range strategies {
		seq, err := Fit(context.Background(), d, FitConfig{Search: strat, MKL: mkl.Config{Seed: 1, Parallelism: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				got, err := Fit(context.Background(), d, FitConfig{
					Search: strat,
					MKL:    mkl.Config{Seed: 1, Parallelism: workers},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !got.Best.Equal(seq.Best) || got.Score != seq.Score {
					t.Fatalf("workers=%d selected (%v, %v), sequential (%v, %v)",
						workers, got.Best, got.Score, seq.Best, seq.Score)
				}
				if !got.Seed.Equal(seq.Seed) || !reflect.DeepEqual(got.SeedAttrs, seq.SeedAttrs) {
					t.Fatalf("seeds diverge: (%v, %v) vs (%v, %v)", got.Seed, got.SeedAttrs, seq.Seed, seq.SeedAttrs)
				}
			})
		}
	}
}

// TestFitCancellationReturnsPartialResult: a context cancelled between
// candidate evaluations aborts the fit within one evaluation and hands
// back the best-so-far state with an error wrapping ctx.Err().
func TestFitCancellationReturnsPartialResult(t *testing.T) {
	d := fitTestData(t)
	full, err := Fit(context.Background(), d, FitConfig{MKL: mkl.Config{Seed: 1, Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	candidates := 0
	cfg := FitConfig{MKL: mkl.Config{Seed: 1, Parallelism: 1, Progress: func(ev mkl.Event) {
		if ev.Kind == mkl.EventCandidateEvaluated {
			candidates++
			if candidates == 3 {
				cancel() // observed at the next candidate boundary
			}
		}
	}}}
	res, err := Fit(ctx, d, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled fit returned no partial result")
	}
	if res.Evaluations == 0 || res.Evaluations >= full.Evaluations {
		t.Fatalf("partial fit evaluated %d candidates, full fit %d", res.Evaluations, full.Evaluations)
	}
	if !res.Seed.Equal(full.Seed) {
		t.Fatalf("partial fit seed %v, want %v", res.Seed, full.Seed)
	}
	if res.Best.N() != d.D() {
		t.Fatalf("partial best over %d features, want %d", res.Best.N(), d.D())
	}
}

// TestFitGreedyCancelledBeforeSearchReturnsEmptyPartial: cancellation
// landing between seeding and the first candidate must still produce a
// partial FitResult (zero-partition Best) for EVERY strategy — the greedy
// seed evaluation is the corner the others don't have.
func TestFitGreedyCancelledBeforeSearchReturnsEmptyPartial(t *testing.T) {
	d := fitTestData(t)
	for name, strat := range map[string]SearchStrategy{
		"greedy": SearchGreedy, "chain": SearchChain, "exhaustive": SearchExhaustive,
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg := FitConfig{Search: strat, MKL: mkl.Config{Seed: 1, Parallelism: workers,
					Progress: func(ev mkl.Event) {
						if ev.Kind == mkl.EventSeedSelected {
							cancel() // before any candidate evaluation
						}
					}}}
				res, err := Fit(ctx, d, cfg)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if res == nil {
					t.Fatal("no partial result for pre-search cancellation")
				}
				if res.Evaluations != 0 {
					t.Fatalf("evaluated %d candidates after cancellation", res.Evaluations)
				}
				if res.Seed.N() != d.D() {
					t.Fatalf("partial lost the seed: %v", res.Seed)
				}
			})
		}
	}
}

// TestFitPreCancelled: a dead context fails before any evaluation.
func TestFitPreCancelled(t *testing.T) {
	d := fitTestData(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Fit(ctx, d, FitConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("dead context produced a result: %+v", res)
	}
}

// TestFitEmitsLifecycleEvents: the fit-level event stream brackets the
// candidate stream with seed/search/fit markers.
func TestFitEmitsLifecycleEvents(t *testing.T) {
	d := fitTestData(t)
	var kinds []mkl.EventKind
	_, err := Fit(context.Background(), d, FitConfig{
		MKL: mkl.Config{Seed: 1, Parallelism: 1, Progress: func(ev mkl.Event) { kinds = append(kinds, ev.Kind) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kinds) < 4 {
		t.Fatalf("only %d events emitted", len(kinds))
	}
	if kinds[0] != mkl.EventSeedSelected {
		t.Fatalf("first event %v, want seed-selected", kinds[0])
	}
	if kinds[len(kinds)-1] != mkl.EventFitFinished || kinds[len(kinds)-2] != mkl.EventSearchFinished {
		t.Fatalf("stream does not end with search-finished, fit-finished: %v", kinds[len(kinds)-2:])
	}
	for _, k := range kinds[1 : len(kinds)-2] {
		if k != mkl.EventCandidateEvaluated && k != mkl.EventBestImproved {
			t.Fatalf("unexpected mid-stream event %v", k)
		}
	}
}

// TestFitPartialResultCanPackageArtifact: the best-so-far configuration of
// a cancelled fit still produces a deployable artifact.
func TestFitPartialResultCanPackageArtifact(t *testing.T) {
	d := fitTestData(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	res, err := Fit(ctx, d, FitConfig{MKL: mkl.Config{Seed: 1, Parallelism: 1, Progress: func(ev mkl.Event) {
		if ev.Kind == mkl.EventCandidateEvaluated {
			if n++; n == 2 {
				cancel()
			}
		}
	}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.gram != nil {
		t.Fatal("a cancelled fit kept a deployment Gram; its artifact must assemble its own")
	}
	art, err := res.Artifact()
	if err != nil {
		t.Fatalf("packaging the partial best: %v", err)
	}
	if err := art.Validate(); err != nil {
		t.Fatal(err)
	}
}
