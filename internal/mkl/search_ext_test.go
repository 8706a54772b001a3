package mkl

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/partition"
)

// TestSearchCoreDeterminismAlignmentOrder: the chain searches rank their
// free features on the pool the search then sweeps with. The ranking and
// every singleton alignment must be the sequential loop's, bit for bit,
// at every worker count and backend. Each evaluator starts with a cold
// block cache, so the pool's workers build the singleton blocks
// concurrently (the -race contract run checks those builds).
func TestSearchCoreDeterminismAlignmentOrder(t *testing.T) {
	d := smallFacetData(60, 21)
	feats := make([]int, d.D())
	for i := range feats {
		feats[i] = i + 1
	}
	backends := []struct {
		name string
		cfg  Config
	}{
		{"f64", Config{}},
		{"f64-uncached", Config{GramCache: kernel.NewBlockGramCache(d.X, kernel.RBFFactory(1.0), -1)}},
		{"f32", Config{Backend: engine.Float32}},
		{"nystrom", Config{Backend: engine.Nystrom(16)}},
	}
	for _, b := range backends {
		var wantAligns []float64
		var wantOrder []int
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/P=%d", b.name, workers), func(t *testing.T) {
				cfg := b.cfg
				cfg.Objective, cfg.Seed, cfg.Parallelism = KernelAlignment, 1, workers
				e, err := NewEvaluator(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				r := e.beginSearch()
				aligns, err := r.alignments(feats)
				if err != nil {
					t.Fatal(err)
				}
				// A second ranking reads the now-warm shared cache, which
				// the first must have left as it found it.
				again, err := r.alignments(feats)
				if err != nil {
					t.Fatal(err)
				}
				order, err := r.alignmentOrder(feats)
				if err != nil {
					t.Fatal(err)
				}
				for i := range aligns {
					if math.Float64bits(again[i]) != math.Float64bits(aligns[i]) {
						t.Errorf("feature %d: warm-cache alignment %v, cold %v", feats[i], again[i], aligns[i])
					}
				}
				if workers == 1 {
					wantAligns, wantOrder = aligns, order
					return
				}
				for i := range wantAligns {
					if math.Float64bits(aligns[i]) != math.Float64bits(wantAligns[i]) {
						t.Errorf("feature %d: alignment %v, sequential %v", feats[i], aligns[i], wantAligns[i])
					}
				}
				if !slices.Equal(order, wantOrder) {
					t.Errorf("order %v, sequential %v", order, wantOrder)
				}
			})
		}
	}
}

func TestDendrogramSearchCostAndValidity(t *testing.T) {
	d := smallFacetData(60, 21)
	e := newEval(t, d, KernelAlignment)
	res, err := DendrogramSearch(e, cluster.AverageLinkage, BestOfChain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != d.D() {
		t.Errorf("dendrogram search cost = %d, want %d (linear)", res.Evaluations, d.D())
	}
	if res.Best.N() != d.D() {
		t.Errorf("partition over %d features", res.Best.N())
	}
	// The trace must be a saturated chain from finest to coarsest.
	if !res.Trace[0].Partition.Equal(partition.Finest(d.D())) {
		t.Error("dendrogram chain should start at the finest partition")
	}
	last := res.Trace[len(res.Trace)-1].Partition
	if last.NumBlocks() != 1 {
		t.Errorf("dendrogram chain should end at one block, got %d", last.NumBlocks())
	}
	for i := 1; i < len(res.Trace); i++ {
		if !res.Trace[i-1].Partition.Covers(res.Trace[i].Partition) {
			t.Fatalf("trace step %d is not a cover", i)
		}
	}
}

func TestDendrogramSearchFirstImprovement(t *testing.T) {
	d := smallFacetData(60, 22)
	eBest := newEval(t, d, KernelAlignment)
	best, err := DendrogramSearch(eBest, cluster.AverageLinkage, BestOfChain)
	if err != nil {
		t.Fatal(err)
	}
	eFirst := newEval(t, d, KernelAlignment)
	first, err := DendrogramSearch(eFirst, cluster.AverageLinkage, FirstImprovement)
	if err != nil {
		t.Fatal(err)
	}
	if first.Evaluations > best.Evaluations {
		t.Error("first-improvement should not cost more than best-of-chain")
	}
	if first.Score > best.Score+1e-12 {
		t.Error("first-improvement cannot beat best-of-chain on the same chain")
	}
}

func TestChainBeamSearchDominatesSingleChain(t *testing.T) {
	d := smallFacetData(60, 23)
	seed := partition.Coarsest(d.D())

	eOne, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	one, err := ChainBeamSearch(eOne, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	eThree, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	three, err := ChainBeamSearch(eThree, seed, 3)
	if err != nil {
		t.Fatal(err)
	}
	if three.Score < one.Score-1e-12 {
		t.Errorf("beam 3 (%v) cannot be worse than beam 1 (%v)", three.Score, one.Score)
	}
	if one.Evaluations != d.D() {
		t.Errorf("beam 1 cost = %d, want %d", one.Evaluations, d.D())
	}
	if three.Evaluations > 3*d.D() {
		t.Errorf("beam 3 cost = %d, want <= %d", three.Evaluations, 3*d.D())
	}
}

func TestChainBeamSearchMatchesChainSearchAtBeamOne(t *testing.T) {
	d := smallFacetData(50, 24)
	seed := partition.Coarsest(d.D())
	eA, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ChainSearch(eA, seed, BestOfChain)
	if err != nil {
		t.Fatal(err)
	}
	eB, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChainBeamSearch(eB, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score || !a.Best.Equal(b.Best) {
		t.Errorf("beam 1 (%s %v) differs from chain search (%s %v)",
			b.Best, b.Score, a.Best, a.Score)
	}
}

func TestChainBeamSearchClampsBeam(t *testing.T) {
	d := smallFacetData(40, 25)
	seed := partition.Coarsest(d.D())
	e := newEval(t, d, KernelAlignment)
	res, err := ChainBeamSearch(e, seed, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > d.D()*d.D() {
		t.Errorf("clamped beam cost = %d, want <= m²", res.Evaluations)
	}
	if _, err := ChainBeamSearch(e, seed, 0); err != nil {
		t.Errorf("beam 0 should clamp to 1: %v", err)
	}
}

// TestSingletonAlignmentAllocatesNoGram pins the memory of a singleton
// alignment ranking on a warm exact cache: CenteredAlignment reads the
// cached packed block in place through its upper rows, so ranking a
// feature allocates O(n) (row means and row views), below even one packed
// n×n block, let alone a full n×n copy.
func TestSingletonAlignmentAllocatesNoGram(t *testing.T) {
	const calls = 10
	d := smallFacetData(200, 3)
	e, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := singletonAlignment(e, 2) // builds and caches the block
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if got := singletonAlignment(e, 2); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("warm ranking %v, cold %v", got, want)
		}
	}
	runtime.ReadMemStats(&after)
	n := uint64(d.N())
	if perCall, packed := (after.TotalAlloc-before.TotalAlloc)/calls, n*(n+1)/2*8; perCall >= packed {
		t.Errorf("singleton alignment allocated %d B per call, want below one packed order-%d block (%d B)", perCall, n, packed)
	}
}
