package mkl

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/stats"
)

func parallelTestData(t testing.TB, n int, seed int64) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultBiometricConfig()
	cfg.N = n
	d := dataset.SyntheticBiometric(cfg, stats.NewRNG(seed))
	d.Standardize()
	return d
}

// parallelTestDataDim builds an m-feature two-class dataset (the first half
// of the features informative) for cone-sized tests.
func parallelTestDataDim(t testing.TB, m, n int, seed int64) *dataset.Dataset {
	t.Helper()
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

func TestGreedyRefineParallelDeterminism(t *testing.T) {
	// Small feature count: greedy's first step enumerates the 2^(m-1)-1
	// two-way splits of the coarsest block.
	d := parallelTestDataDim(t, 8, 50, 17)
	seed := partition.Coarsest(d.D())
	eSeq, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := GreedyRefine(eSeq, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		ePar, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: 9, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := GreedyRefine(ePar, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Best.Equal(want.Best) || got.Score != want.Score {
			t.Errorf("workers=%d: (%v, %v), sequential (%v, %v)",
				workers, got.Best, got.Score, want.Best, want.Score)
		}
		if len(got.Trace) != len(want.Trace) {
			t.Errorf("workers=%d: trace length %d, sequential %d", workers, len(got.Trace), len(want.Trace))
		}
	}
}

// TestParallelSearchFromMultipleSeedsConcurrently exercises the engine the
// way the race detector likes it: several parallel searches run at once
// from different seed partitions, sharing one Gram-block cache.
func TestParallelSearchFromMultipleSeedsConcurrently(t *testing.T) {
	d := parallelTestData(t, 50, 23)
	cfg := Config{Objective: KernelAlignment, Seed: 2, Parallelism: 4}
	base, err := NewEvaluator(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GramCache = base.gramCache

	seeds := []partition.Partition{
		partition.Coarsest(d.D()),
		d.ViewPartition(),
		partition.MustFromBlocks(d.D(), [][]int{{1, 2}, rangeInts(3, d.D())}),
	}
	var wg sync.WaitGroup
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	for i, s := range seeds {
		wg.Add(1)
		go func(i int, s partition.Partition) {
			defer wg.Done()
			e, err := NewEvaluator(d, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = ChainSearch(e, s, BestOfChain)
		}(i, s)
	}
	wg.Wait()
	for i := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", i, errs[i])
		}
		// Each concurrent search must match its own sequential reference.
		e, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ChainSearch(e, seeds[i], BestOfChain)
		if err != nil {
			t.Fatal(err)
		}
		if !results[i].Best.Equal(want.Best) || results[i].Score != want.Score {
			t.Errorf("seed %d: (%v, %v), sequential (%v, %v)",
				i, results[i].Best, results[i].Score, want.Best, want.Score)
		}
	}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func TestGramCacheDisabledStillCorrect(t *testing.T) {
	d := parallelTestData(t, 40, 29)
	seed := partition.Coarsest(d.D())
	eOn, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	eOff, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: 4, GramCacheBlocks: -1})
	if err != nil {
		t.Fatal(err)
	}
	on, err := ChainSearch(eOn, seed, BestOfChain)
	if err != nil {
		t.Fatal(err)
	}
	off, err := ChainSearch(eOff, seed, BestOfChain)
	if err != nil {
		t.Fatal(err)
	}
	if n := eOff.gramCache.Len(); n != 0 {
		t.Fatalf("negative GramCacheBlocks should disable retention, cache holds %d blocks", n)
	}
	if !on.Best.Equal(off.Best) || on.Score != off.Score {
		t.Errorf("cached (%v, %v) vs uncached (%v, %v): must be bit-identical",
			on.Best, on.Score, off.Best, off.Score)
	}
}
