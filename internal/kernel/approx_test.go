package kernel

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/partition"
)

// materialize builds K̂ = F·Fᵀ from a factor.
func materialize(f *linalg.Matrix) *linalg.Matrix { return linalg.SyrkInto(nil, f) }

// Full-rank Nyström (rank >= n) must reconstruct every block Gram and every
// assembled partition Gram to within the 1e-9 exactness budget, across
// seeds — the approximate engine's analogue of the PR 2 contract.
func TestApproxNystromFullRankMatchesExact(t *testing.T) {
	x := randomRows(20, 5, 21)
	factory := RBFFactory(1.0)
	exact := NewBlockGramCache(x, factory, 0)
	for _, seed := range []int64{1, 2, 3} {
		approx := NewApproxGramCache(x, factory, ApproxNystrom, 20, seed, 0)
		for _, p := range partition.All(5)[:25] {
			want := exact.GramForPartition(p, CombineSum, nil)
			f, err := approx.FactorForPartitionScratch(p, CombineSum, nil, &AssemblyScratch{})
			if err != nil {
				t.Fatalf("seed %d partition %v: %v", seed, p, err)
			}
			got := materialize(f)
			for i := range want.Data {
				if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
					t.Fatalf("seed %d partition %v: |K̂-K|[%d] = %g > 1e-9",
						seed, p, i, math.Abs(got.Data[i]-want.Data[i]))
				}
			}
		}
	}
}

// RFF factors of RBF blocks must approximate the assembled Gram within the
// O(1/√dHalf) Monte-Carlo band at a fixed seed.
func TestApproxRFFWithinProbabilisticBound(t *testing.T) {
	x := randomRows(25, 4, 22)
	factory := RBFFactory(1.0)
	exact := NewBlockGramCache(x, factory, 0)
	rank := 4096
	tol := 4 / math.Sqrt(float64(rank/2))
	for _, seed := range []int64{1, 2, 3} {
		approx := NewApproxGramCache(x, factory, ApproxRFF, rank, seed, 0)
		for _, p := range []partition.Partition{partition.Coarsest(4), partition.Finest(4)} {
			want := exact.GramForPartition(p, CombineSum, nil)
			f, err := approx.FactorForPartitionScratch(p, CombineSum, nil, &AssemblyScratch{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			got := materialize(f)
			for i := range want.Data {
				if math.Abs(got.Data[i]-want.Data[i]) > tol {
					t.Fatalf("seed %d partition %v: |K̂-K|[%d] = %g > %g",
						seed, p, i, math.Abs(got.Data[i]-want.Data[i]), tol)
				}
			}
		}
	}
}

// Non-RBF base kernels in RFF mode fall back to Nyström: at full rank the
// factor must still reconstruct the exact (linear) Gram.
func TestApproxRFFNonRBFFallsBackToNystrom(t *testing.T) {
	x := randomRows(15, 4, 23)
	factory := LinearFactory()
	exact := NewBlockGramCache(x, factory, 0)
	approx := NewApproxGramCache(x, factory, ApproxRFF, 15, 1, 0)
	p := partition.Coarsest(4)
	want := exact.GramForPartition(p, CombineSum, nil)
	f, err := approx.FactorForPartitionScratch(p, CombineSum, nil, &AssemblyScratch{})
	if err != nil {
		t.Fatal(err)
	}
	got := materialize(f)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("fallback factor off by %g at %d", math.Abs(got.Data[i]-want.Data[i]), i)
		}
	}
}

// CombineProduct has no low-rank structure and must be rejected loudly.
func TestApproxRejectsProductCombiner(t *testing.T) {
	x := randomRows(8, 3, 24)
	approx := NewApproxGramCache(x, RBFFactory(1.0), ApproxNystrom, 4, 1, 0)
	_, err := approx.FactorForPartitionScratch(partition.Finest(3), CombineProduct, nil, &AssemblyScratch{})
	if err == nil || !strings.Contains(err.Error(), "CombineSum") {
		t.Fatalf("err = %v, want CombineSum-only error", err)
	}
}

// Factor draws depend only on (cache seed, block fingerprint): any
// evaluation order, any degree of concurrency, and fresh caches with the
// same seed all produce bit-identical factors.
func TestApproxFactorsDeterministicAcrossOrderAndWorkers(t *testing.T) {
	x := randomRows(18, 5, 25)
	factory := RBFFactory(1.0)
	parts := partition.All(5)[:30]
	for _, kind := range []ApproxKind{ApproxNystrom, ApproxRFF} {
		// Reference: sequential, in order.
		ref := NewApproxGramCache(x, factory, kind, 8, 42, 0)
		refF := make([]*linalg.Matrix, len(parts))
		for i, p := range parts {
			f, err := ref.FactorForPartitionScratch(p, CombineSum, nil, &AssemblyScratch{})
			if err != nil {
				t.Fatal(err)
			}
			refF[i] = f
		}
		for _, workers := range []int{1, 2, 8} {
			fresh := NewApproxGramCache(x, factory, kind, 8, 42, 0)
			got := make([]*linalg.Matrix, len(parts))
			var wg sync.WaitGroup
			idx := make(chan int)
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var sc AssemblyScratch
					for i := range idx {
						f, err := fresh.FactorForPartitionScratch(parts[i], CombineSum, nil, &sc)
						if err != nil {
							errs[w] = err
							return
						}
						got[i] = f
					}
				}(w)
			}
			// Reversed dispatch order: determinism must not depend on
			// which candidate (or worker) touches a block first.
			for i := len(parts) - 1; i >= 0; i-- {
				idx <- i
			}
			close(idx)
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := range parts {
				if got[i].Rows != refF[i].Rows || got[i].Cols != refF[i].Cols {
					t.Fatalf("kind %v workers %d partition %v: factor shape %dx%d, want %dx%d",
						kind, workers, parts[i], got[i].Rows, got[i].Cols, refF[i].Rows, refF[i].Cols)
				}
				for j := range refF[i].Data {
					if got[i].Data[j] != refF[i].Data[j] {
						t.Fatalf("kind %v workers %d partition %v: factor entry %d differs (bitwise)",
							kind, workers, parts[i], j)
					}
				}
			}
		}
	}
}

// Distinct seeds must draw distinct landmarks/frequencies (the knob is
// live), while each seed remains self-consistent.
func TestApproxSeedChangesDraws(t *testing.T) {
	x := randomRows(30, 4, 26)
	factory := RBFFactory(1.0)
	a, err1 := NewApproxGramCache(x, factory, ApproxNystrom, 4, 1, 0).Block([]int{0, 1})
	b, err2 := NewApproxGramCache(x, factory, ApproxNystrom, 4, 2, 0).Block([]int{0, 1})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 drew identical landmark factors")
	}
}

// A warm cache returns the same shared factor pointer — blocks are computed
// once and reused across candidates.
func TestApproxFactorReuseAcrossCandidates(t *testing.T) {
	x := randomRows(12, 4, 27)
	approx := NewApproxGramCache(x, RBFFactory(1.0), ApproxNystrom, 6, 1, 0)
	f1, err := approx.Block([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := approx.Block([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("warm block factor was recomputed")
	}
	if approx.Len() != 1 {
		t.Fatalf("cache holds %d factors, want 1", approx.Len())
	}
}
