package core

import (
	"context"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mkl"
)

// evalOnly hides a block kernel's BlockGramKernel implementation, so every
// candidate Gram falls back to the scalar pairwise Eval path.
type evalOnly struct{ kernel.Kernel }

// pairwiseFactory returns nil — the default vectorized RBF factory — or,
// for the pairwise leg (exact), the same RBF factory with Eval-only kernels.
func pairwiseFactory(exact bool) kernel.BlockKernelFactory {
	if !exact {
		return nil
	}
	rbf := kernel.RBFFactory(1.0)
	return func(feats []int) kernel.Kernel { return evalOnly{rbf(feats)} }
}

// TestVectorizedAndPairwiseSelectSamePartition is the end-to-end contract of
// the vectorized Gram engine: for every search strategy and worker count,
// Fit must select the same partition (and seed) whether candidate Grams
// come from the dense block path or the scalar pairwise path (an Eval-only
// block factory). Scores may differ within the RBF tolerance, so only the
// selection — the decision the engine exists to make — is compared.
func TestVectorizedAndPairwiseSelectSamePartition(t *testing.T) {
	train := workload(60, 5)
	strategies := []SearchStrategy{
		SearchChain, SearchChainFirstImprovement, SearchGreedy, SearchExhaustive,
	}
	for _, s := range strategies {
		for _, workers := range []int{1, 2, 8} {
			run := func(exact bool) *FitResult {
				t.Helper()
				res, err := Fit(context.Background(), train, FitConfig{
					Search: s,
					MKL: mkl.Config{
						Objective:   mkl.KernelAlignment,
						Seed:        1,
						Parallelism: workers,
						Factory:     pairwiseFactory(exact),
					},
				})
				if err != nil {
					t.Fatalf("strategy %d workers %d exact %v: %v", s, workers, exact, err)
				}
				return res
			}
			fast := run(false)
			slow := run(true)
			if !fast.Seed.Equal(slow.Seed) {
				t.Errorf("strategy %d workers %d: seeds differ: %s vs %s", s, workers, fast.Seed, slow.Seed)
			}
			if !fast.Best.Equal(slow.Best) {
				t.Errorf("strategy %d workers %d: vectorized selected %s, pairwise %s",
					s, workers, fast.Best, slow.Best)
			}
		}
	}
}

// TestExactGramNoCacheSelectionMatches exercises the no-cache scoring path
// (an injected block cache with a negative retention limit): the
// vectorized full-configuration Gram must drive the search to the same
// selection as the pairwise path there too.
func TestExactGramNoCacheSelectionMatches(t *testing.T) {
	train := workload(60, 6)
	for _, workers := range []int{1, 2} {
		run := func(exact bool) *FitResult {
			t.Helper()
			// The cache takes the resolved factory: nil means RBFFactory(1.0).
			factory := pairwiseFactory(exact)
			cacheFactory := factory
			if cacheFactory == nil {
				cacheFactory = kernel.RBFFactory(1.0)
			}
			res, err := Fit(context.Background(), train, FitConfig{
				MKL: mkl.Config{
					Objective:   mkl.KernelAlignment,
					Seed:        1,
					Parallelism: workers,
					GramCache:   kernel.NewBlockGramCache(train.X, cacheFactory, -1),
					Factory:     factory,
				},
			})
			if err != nil {
				t.Fatalf("workers %d exact %v: %v", workers, exact, err)
			}
			return res
		}
		fast := run(false)
		slow := run(true)
		if !fast.Best.Equal(slow.Best) {
			t.Errorf("workers %d: no-cache vectorized selected %s, pairwise %s", workers, fast.Best, slow.Best)
		}
	}
}
