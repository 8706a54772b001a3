package kernel

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/partition"
)

func randomRows(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	return x
}

func TestGramForPartitionMatchesUncachedBitwise(t *testing.T) {
	x := randomRows(25, 6, 1)
	for _, combiner := range []Combiner{CombineSum, CombineProduct} {
		for _, factory := range []BlockKernelFactory{RBFFactory(1.0), LinearFactory()} {
			cache := NewBlockGramCache(x, factory, 0)
			for _, p := range partition.All(6)[:40] {
				want := refGramFromPartition(p, factory, combiner, x)
				got := cache.GramForPartition(p, combiner, nil)
				for i := range want.Data {
					if want.Data[i] != got.Data[i] {
						t.Fatalf("partition %v combiner %v: entry %d = %v, want %v (bitwise)",
							p, combiner, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestGramForPartitionReusesOutputBuffer(t *testing.T) {
	x := randomRows(10, 4, 2)
	cache := NewBlockGramCache(x, RBFFactory(1.0), 0)
	buf := cache.GramForPartition(partition.Finest(4), CombineSum, nil)
	again := cache.GramForPartition(partition.Coarsest(4), CombineSum, buf)
	if again != buf {
		t.Error("matching buffer was not reused")
	}
}

func TestBlockGramCacheSharesBlocksAcrossPartitions(t *testing.T) {
	x := randomRows(12, 5, 3)
	cache := NewBlockGramCache(x, RBFFactory(1.0), 0)
	// 1/2345 and 1/2345-refinements share the {1} singleton block.
	cache.GramForPartition(partition.MustFromBlocks(5, [][]int{{1}, {2, 3, 4, 5}}), CombineSum, nil)
	if got := cache.Len(); got != 2 {
		t.Fatalf("cache holds %d blocks, want 2", got)
	}
	cache.GramForPartition(partition.MustFromBlocks(5, [][]int{{1}, {2, 3}, {4, 5}}), CombineSum, nil)
	if got := cache.Len(); got != 4 { // {1} reused, {2,3} and {4,5} added
		t.Fatalf("cache holds %d blocks, want 4", got)
	}
}

func TestBlockGramCacheLimit(t *testing.T) {
	x := randomRows(8, 6, 4)
	cache := NewBlockGramCache(x, RBFFactory(1.0), 3)
	for f := 0; f < 6; f++ {
		cache.Block([]int{f})
	}
	if got := cache.Len(); got != 3 {
		t.Errorf("cache holds %d blocks, want limit 3", got)
	}
	// Beyond the limit the cache still returns correct (uncached) Grams.
	g, _ := cache.Block([]int{5})
	want := linalg.NewMatrix(len(x), len(x))
	refGramInto(want, linalg.FromRows(x), Subspace{Base: RBFFactory(1.0)([]int{5}), Features: []int{5}})
	for i := range want.Data {
		if g.Data[i] != want.Data[i] {
			t.Fatal("over-limit block Gram differs from direct computation")
		}
	}
}

// TestRetentionDisabledAssemblyHoldsOneBlock pins the memory shape of the
// retention-disabled float64 assembly (the exact twin of a budgeted fit at
// scale, the deployment fit): each block is built into the caller's one
// block buffer and folded before the next, so a warm call allocates less
// than one n×n matrix however many blocks the partition has, and the
// cache keeps nothing.
func TestRetentionDisabledAssemblyHoldsOneBlock(t *testing.T) {
	const n, d, calls = 200, 10, 10
	x := randomRows(n, d, 11)
	p := partition.MustFromBlocks(d, [][]int{{1, 2}, {3}, {4, 5, 6}, {7, 9}, {8, 10}})
	cache := NewBlockGramCache(x, RBFFactory(1.0), -1)
	var sc AssemblyScratch
	out := cache.GramForPartitionScratch(p, CombineSum, nil, &sc) // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		out = cache.GramForPartitionScratch(p, CombineSum, out, &sc)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if oneBlock := uint64(n * n * 8); perCall >= oneBlock {
		t.Errorf("retention-disabled assembly allocated %d B per call, want below one %d×%d block (%d B)", perCall, n, n, oneBlock)
	}
	if cache.Len() != 0 || cache.Bytes() != 0 {
		t.Errorf("retention-disabled cache holds %d blocks (%d B), want none", cache.Len(), cache.Bytes())
	}
}

// hideBlock hides a kernel's BlockGramKernel implementation, so every Gram
// route falls back to pairwise Eval.
type hideBlock struct{ Kernel }

func TestBlockGramCacheExactMatchesPairwise(t *testing.T) {
	x := randomRows(14, 5, 7)
	factory := RBFFactory(1.0)
	exact := NewBlockGramCache(x, func(feats []int) Kernel { return hideBlock{factory(feats)} }, 0)
	fast := NewBlockGramCache(x, factory, 0)
	for _, p := range partition.All(5)[:20] {
		want := GramPairwise(FromPartition(p, factory, CombineSum), x)
		got := exact.GramForPartition(p, CombineSum, nil)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("partition %v: exact cache diverged from pairwise at %d", p, i)
			}
		}
		// The fast cache stays within the RBF tolerance of the exact one.
		v := fast.GramForPartition(p, CombineSum, nil)
		for i := range want.Data {
			d := v.Data[i] - want.Data[i]
			if d > 1e-9 || d < -1e-9 {
				t.Fatalf("partition %v: vectorized cache off by %v at %d", p, d, i)
			}
		}
	}
}

func TestBlockGramCacheConcurrent(t *testing.T) {
	x := randomRows(15, 6, 5)
	factory := RBFFactory(1.0)
	cache := NewBlockGramCache(x, factory, 0)
	parts := partition.All(6)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(parts); i += 8 {
				got := cache.GramForPartition(parts[i], CombineSum, nil)
				want := refGramFromPartition(parts[i], factory, CombineSum, x)
				for j := range want.Data {
					if got.Data[j] != want.Data[j] {
						t.Errorf("partition %v: concurrent cached Gram differs", parts[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
