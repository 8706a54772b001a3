package kernel

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/partition"
	"repro/internal/stats"
)

// testRows draws an n×d standard-normal dataset.
func testRows(n, d int, seed int64) [][]float64 {
	rng := stats.NewRNG(seed)
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	return x
}

// exactKernels must produce bit-identical Grams on the vectorized path.
func exactKernels() []Kernel {
	return []Kernel{
		Linear{},
		Polynomial{Degree: 3, Gamma: 0.7, Coef0: 1.1},
		Normalized{Base: Linear{}},
		Normalized{Base: Polynomial{Degree: 2, Gamma: 0.5, Coef0: 1}},
		Subspace{Base: Linear{}, Features: []int{4, 1, 2}},
		Subspace{Base: Polynomial{Degree: 2, Gamma: 1, Coef0: 0.5}, Features: []int{0, 3}},
		Sum{Kernels: []Kernel{
			Subspace{Base: Linear{}, Features: []int{0, 1}},
			Subspace{Base: Polynomial{Degree: 2, Gamma: 1, Coef0: 1}, Features: []int{2, 3, 4}},
		}, Weights: []float64{0.5, 0.5}},
		Product{Kernels: []Kernel{
			Subspace{Base: Normalized{Base: Linear{}}, Features: []int{0, 1, 2}},
			Subspace{Base: Polynomial{Degree: 1, Gamma: 1, Coef0: 2}, Features: []int{3, 4}},
		}},
	}
}

// toleranceKernels involve RBF's distance expansion: within 1e-9.
func toleranceKernels() []Kernel {
	return []Kernel{
		RBF{Gamma: 0.3},
		Normalized{Base: RBF{Gamma: 0.5}},
		Subspace{Base: RBF{Gamma: 0.8}, Features: []int{1, 2, 4}},
		Sum{Kernels: []Kernel{
			Subspace{Base: RBF{Gamma: 0.5}, Features: []int{0, 1}},
			Subspace{Base: Linear{}, Features: []int{2, 3, 4}},
		}, Weights: []float64{0.5, 0.5}},
		Product{Kernels: []Kernel{
			Subspace{Base: RBF{Gamma: 0.4}, Features: []int{0, 1, 2}},
			Subspace{Base: RBF{Gamma: 0.2}, Features: []int{3, 4}},
		}},
	}
}

func gramViaBlock(t *testing.T, k Kernel, x [][]float64) *linalg.Matrix {
	t.Helper()
	bg, ok := k.(BlockGramKernel)
	if !ok {
		t.Fatalf("%v does not implement BlockGramKernel", k)
	}
	g := linalg.NewMatrix(len(x), len(x))
	if !bg.GramInto(g, linalg.FromRows(x)) {
		t.Fatalf("%v refused the block fast path", k)
	}
	return g
}

func TestBlockGramBitIdenticalForExactKernels(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		x := testRows(40, 5, seed)
		for _, k := range exactKernels() {
			got := gramViaBlock(t, k, x)
			want := GramPairwise(k, x)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("seed %d kernel %v: entry %d = %v, pairwise %v (must be bit-identical)",
						seed, k, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestBlockGramWithinToleranceForRBF(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		x := testRows(40, 5, seed)
		for _, k := range toleranceKernels() {
			got := gramViaBlock(t, k, x)
			want := GramPairwise(k, x)
			for i := range want.Data {
				if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-9 {
					t.Fatalf("seed %d kernel %v: entry %d off by %v (tolerance 1e-9)", seed, k, i, d)
				}
			}
		}
	}
}

func TestBlockGramRBFDiagonalExact(t *testing.T) {
	x := testRows(25, 4, 7)
	g := gramViaBlock(t, RBF{Gamma: 0.6}, x)
	for i := 0; i < g.Rows; i++ {
		if g.At(i, i) != 1 {
			t.Errorf("RBF diagonal (%d,%d) = %v, want exactly 1", i, i, g.At(i, i))
		}
	}
}

func TestBlockCrossGramMatchesPairwise(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a := testRows(15, 5, seed)
		b := testRows(11, 5, seed+100)
		for _, k := range exactKernels() {
			bound, ok := k.(BlockGramKernel).BindCross(linalg.FromRows(b))
			if !ok {
				t.Fatalf("%v refused BindCross", k)
			}
			got := linalg.NewMatrix(len(a), len(b))
			bound.Fill(got, linalg.FromRows(a), new(CrossScratch))
			want := CrossGramPairwise(k, a, b)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("seed %d kernel %v: cross entry %d = %v, pairwise %v", seed, k, i, got.Data[i], want.Data[i])
				}
			}
		}
		for _, k := range toleranceKernels() {
			bound, ok := k.(BlockGramKernel).BindCross(linalg.FromRows(b))
			if !ok {
				t.Fatalf("%v refused BindCross", k)
			}
			got := linalg.NewMatrix(len(a), len(b))
			bound.Fill(got, linalg.FromRows(a), new(CrossScratch))
			want := CrossGramPairwise(k, a, b)
			for i := range want.Data {
				if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-9 {
					t.Fatalf("seed %d kernel %v: cross entry %d off by %v", seed, k, i, d)
				}
			}
		}
	}
}

// evalOnly is a kernel without a block fast path, for fallback tests.
type evalOnly struct{}

func (evalOnly) Eval(x, y []float64) float64 { return x[0] * y[0] }
func (evalOnly) String() string              { return "evalOnly" }

func TestGramDispatchFallsBackForEvalOnlyKernels(t *testing.T) {
	x := testRows(10, 3, 1)
	got := Gram(evalOnly{}, x)
	want := GramPairwise(evalOnly{}, x)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("fallback Gram diverged at %d", i)
		}
	}
	// Wrappers over an Eval-only base must refuse the fast path, and the
	// dispatching entry points must still produce the pairwise result.
	wrapped := []Kernel{
		Subspace{Base: evalOnly{}, Features: []int{0, 1}},
		Normalized{Base: evalOnly{}},
		Sum{Kernels: []Kernel{Linear{}, evalOnly{}}},
		Product{Kernels: []Kernel{evalOnly{}, Linear{}}},
	}
	for _, k := range wrapped {
		bg, ok := k.(BlockGramKernel)
		if !ok {
			t.Fatalf("%v should still satisfy the interface", k)
		}
		if bg.GramInto(linalg.NewMatrix(len(x), len(x)), linalg.FromRows(x)) {
			t.Errorf("%v accepted the fast path over an Eval-only base", k)
		}
		if _, ok := bg.BindCross(linalg.FromRows(x)); ok {
			t.Errorf("%v accepted BindCross over an Eval-only base", k)
		}
		g := Gram(k, x)
		w := GramPairwise(k, x)
		for i := range w.Data {
			if g.Data[i] != w.Data[i] {
				t.Fatalf("kernel %v: dispatching Gram diverged from pairwise at %d", k, i)
			}
		}
	}
}

func TestGramDispatchMatchesFromPartitionConfigurations(t *testing.T) {
	// The configuration kernels the search actually scores: partition-induced
	// sums and products of subspace RBF / linear kernels.
	for _, seed := range []int64{1, 2, 3} {
		x := testRows(30, 6, seed)
		p := partition.MustFromBlocks(6, [][]int{{1, 4}, {2, 3, 6}, {5}})
		for _, combiner := range []Combiner{CombineSum, CombineProduct} {
			for name, factory := range map[string]BlockKernelFactory{
				"rbf":         RBFFactory(1.0),
				"linear":      LinearFactory(),
				"norm-linear": NormalizedFactory(LinearFactory()),
			} {
				k := FromPartition(p, factory, combiner)
				got := Gram(k, x)
				want := GramPairwise(k, x)
				tol := 0.0
				if name == "rbf" {
					tol = 1e-9
				}
				for i := range want.Data {
					if d := math.Abs(got.Data[i] - want.Data[i]); d > tol {
						t.Fatalf("seed %d %s %v: entry %d off by %v (tol %v)", seed, name, combiner, i, d, tol)
					}
				}
			}
		}
	}
}

func TestGramIntoMatrixReusesScratch(t *testing.T) {
	x := testRows(12, 4, 9)
	xm := linalg.FromRows(x)
	buf := linalg.NewMatrix(12, 12)
	got, ok := GramIntoMatrix(buf, RBF{Gamma: 0.5}, xm)
	if !ok || got != buf {
		t.Fatalf("GramIntoMatrix ok=%v reuse=%v", ok, got == buf)
	}
	got2, ok := GramIntoMatrix(nil, RBF{Gamma: 0.5}, xm)
	if !ok {
		t.Fatal("GramIntoMatrix refused RBF")
	}
	for i := range got.Data {
		if got.Data[i] != got2.Data[i] {
			t.Fatal("scratch reuse changed the result")
		}
	}
	if _, ok := GramIntoMatrix(nil, evalOnly{}, xm); ok {
		t.Error("GramIntoMatrix accepted an Eval-only kernel")
	}
}
