package kernel

import (
	"fmt"
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

// exactKernels are the base kernels whose block formulas must be
// bit-identical to the pairwise path.
func exactKernels() []Kernel {
	return []Kernel{
		Linear{},
		Polynomial{Degree: 3, Gamma: 0.7, Coef0: 1.1},
		Normalized{Base: Linear{}},
		Normalized{Base: Polynomial{Degree: 2, Gamma: 0.5, Coef0: 1}},
	}
}

// toleranceKernels involve RBF's distance expansion: within 1e-9.
func toleranceKernels() []Kernel {
	return []Kernel{
		RBF{Gamma: 0.3},
		Normalized{Base: RBF{Gamma: 0.5}},
	}
}

// blockConfig is a partition-induced configuration over 5 features: the
// factory builds block kernels of several kinds, so a configuration mixes
// them the way a caller's factory may.
type blockConfig struct {
	p        partition.Partition
	factory  BlockKernelFactory
	combiner Combiner
}

// byFirstFeature returns a factory that builds the kernel keyed by each
// block's first 0-based feature.
func byFirstFeature(kernels map[int]Kernel) BlockKernelFactory {
	return func(feats []int) Kernel { return kernels[feats[0]] }
}

// exactConfigs are sums and products of subspace block kernels with exact
// block formulas: bit-identical to the pairwise path.
func exactConfigs() []blockConfig {
	return []blockConfig{
		{partition.MustFromBlocks(5, [][]int{{1, 2, 3, 5}, {4}}), byFirstFeature(map[int]Kernel{
			0: Linear{},
			3: Polynomial{Degree: 2, Gamma: 1, Coef0: 0.5},
		}), CombineSum},
		{partition.MustFromBlocks(5, [][]int{{1, 2}, {3, 4, 5}}), byFirstFeature(map[int]Kernel{
			0: Linear{},
			2: Polynomial{Degree: 2, Gamma: 1, Coef0: 1},
		}), CombineSum},
		{partition.MustFromBlocks(5, [][]int{{1, 2, 3}, {4, 5}}), byFirstFeature(map[int]Kernel{
			0: Normalized{Base: Linear{}},
			3: Polynomial{Degree: 1, Gamma: 1, Coef0: 2},
		}), CombineProduct},
	}
}

// toleranceConfigs involve RBF blocks: within 1e-9 of the pairwise path.
func toleranceConfigs() []blockConfig {
	return []blockConfig{
		{partition.MustFromBlocks(5, [][]int{{1}, {2, 3, 5}, {4}}), byFirstFeature(map[int]Kernel{
			0: Linear{},
			1: RBF{Gamma: 0.8},
			3: Linear{},
		}), CombineSum},
		{partition.MustFromBlocks(5, [][]int{{1, 2}, {3, 4, 5}}), byFirstFeature(map[int]Kernel{
			0: RBF{Gamma: 0.5},
			2: Linear{},
		}), CombineSum},
		{partition.MustFromBlocks(5, [][]int{{1, 2, 3}, {4, 5}}), byFirstFeature(map[int]Kernel{
			0: RBF{Gamma: 0.4},
			3: RBF{Gamma: 0.2},
		}), CombineProduct},
	}
}

func gramViaBlock(t *testing.T, k Kernel, x [][]float64) *linalg.Matrix {
	t.Helper()
	g := linalg.NewMatrix(len(x), len(x))
	if !blockGramInto(g, k, linalg.FromRows(x)) {
		t.Fatalf("%v refused the block fast path", k)
	}
	return g
}

// gramViaCache is a configuration's Gram as the search assembles it, from
// a fresh block cache.
func gramViaCache(c blockConfig, x [][]float64) *linalg.Matrix {
	return NewBlockGramCache(x, c.factory, 0).GramForPartition(c.p, c.combiner, nil)
}

// checkGrams fails on the first entry of got farther than tol from want
// (tol 0 demands bit identity).
func checkGrams(t *testing.T, what string, got, want *linalg.Matrix, tol float64) {
	t.Helper()
	for i := range want.Data {
		if tol == 0 && math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: entry %d = %v, pairwise %v (must be bit-identical)", what, i, got.Data[i], want.Data[i])
		}
		if d := math.Abs(got.Data[i] - want.Data[i]); d > tol {
			t.Fatalf("%s: entry %d off by %v (tolerance %v)", what, i, d, tol)
		}
	}
}

func TestBlockGramBitIdenticalForExactKernels(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		x := testRows(40, 5, seed)
		for _, k := range exactKernels() {
			checkGrams(t, fmt.Sprintf("seed %d kernel %v", seed, k), gramViaBlock(t, k, x), GramPairwise(k, x), 0)
		}
		for _, c := range exactConfigs() {
			k := FromPartition(c.p, c.factory, c.combiner)
			checkGrams(t, fmt.Sprintf("seed %d config %v", seed, k), gramViaCache(c, x), GramPairwise(k, x), 0)
		}
	}
}

func TestBlockGramWithinToleranceForRBF(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		x := testRows(40, 5, seed)
		for _, k := range toleranceKernels() {
			checkGrams(t, fmt.Sprintf("seed %d kernel %v", seed, k), gramViaBlock(t, k, x), GramPairwise(k, x), 1e-9)
		}
		for _, c := range toleranceConfigs() {
			k := FromPartition(c.p, c.factory, c.combiner)
			checkGrams(t, fmt.Sprintf("seed %d config %v", seed, k), gramViaCache(c, x), GramPairwise(k, x), 1e-9)
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

// configKernels returns the kernel trees of configs.
func configKernels(configs []blockConfig) []Kernel {
	out := make([]Kernel, len(configs))
	for i, c := range configs {
		out[i] = FromPartition(c.p, c.factory, c.combiner)
	}
	return out
}

func TestBlockCrossGramMatchesPairwise(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a := testRows(15, 5, seed)
		b := testRows(11, 5, seed+100)
		for _, k := range append(exactKernels(), configKernels(exactConfigs())...) {
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
		for _, k := range append(toleranceKernels(), configKernels(toleranceConfigs())...) {
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
	checkGrams(t, "evalOnly", Gram(evalOnly{}, x), GramPairwise(evalOnly{}, x), 0)
	// No block formula exists for a wrapper over an Eval-only base, nor for
	// a combination: the block path must refuse them before writing, and
	// the dispatching entry points must still produce the pairwise result.
	wrapped := []Kernel{
		Subspace{Base: evalOnly{}, Features: []int{0, 1}},
		Normalized{Base: evalOnly{}},
		Sum{Kernels: []Kernel{Linear{}, evalOnly{}}},
		Product{Kernels: []Kernel{evalOnly{}, Linear{}}},
	}
	for _, k := range wrapped {
		g := linalg.NewMatrix(len(x), len(x))
		if blockGramInto(g, k, linalg.FromRows(x)) {
			t.Errorf("%v accepted the block path over an Eval-only base", k)
		}
		for i, v := range g.Data {
			if v != 0 {
				t.Fatalf("%v: a refused block fill wrote entry %d", k, i)
			}
		}
		if _, ok := k.(BlockGramKernel).BindCross(linalg.FromRows(x)); ok {
			t.Errorf("%v accepted BindCross over an Eval-only base", k)
		}
		checkGrams(t, fmt.Sprintf("kernel %v", k), Gram(k, x), GramPairwise(k, x), 0)
	}
	// A configuration mixing block formulas with an Eval-only block takes
	// the pairwise path for that block alone, with the same bits.
	p := partition.MustFromBlocks(3, [][]int{{1, 3}, {2}})
	for _, combiner := range []Combiner{CombineSum, CombineProduct} {
		c := blockConfig{p, byFirstFeature(map[int]Kernel{0: Linear{}, 1: evalOnly{}}), combiner}
		k := FromPartition(c.p, c.factory, c.combiner)
		checkGrams(t, fmt.Sprintf("config %v", k), gramViaCache(c, x), GramPairwise(k, x), 0)
	}
}

func TestGramDispatchMatchesFromPartitionConfigurations(t *testing.T) {
	// The configuration kernels the search actually scores: partition-induced
	// sums and products of subspace RBF / linear kernels, assembled by the
	// block cache as every scoring path assembles them.
	for _, seed := range []int64{1, 2, 3} {
		x := testRows(30, 6, seed)
		p := partition.MustFromBlocks(6, [][]int{{1, 4}, {2, 3, 6}, {5}})
		for _, combiner := range []Combiner{CombineSum, CombineProduct} {
			for name, factory := range map[string]BlockKernelFactory{
				"rbf":         RBFFactory(1.0),
				"linear":      LinearFactory(),
				"norm-linear": NormalizedFactory(LinearFactory()),
			} {
				tol := 0.0
				if name == "rbf" {
					tol = 1e-9
				}
				got := gramViaCache(blockConfig{p, factory, combiner}, x)
				want := GramPairwise(FromPartition(p, factory, combiner), x)
				checkGrams(t, fmt.Sprintf("seed %d %s %v", seed, name, combiner), got, want, tol)
			}
		}
	}
}

// TestBlockGramSymmetricBitwise pins the precondition of upper-triangle
// assembly (GramForPartitionScratch accumulates only the upper triangle
// and mirrors it): every block formula — SyrkInto, polynomialGram,
// rbfGram, normalizedGram — and the pairwise path store a
// bitwise-symmetric block, at both storage widths.
func TestBlockGramSymmetricBitwise(t *testing.T) {
	kernels := []Kernel{
		Linear{},
		Polynomial{Degree: 3, Gamma: 0.5, Coef0: 1},
		RBF{Gamma: 0.7},
		Normalized{Base: RBF{Gamma: 0.3}},
		Normalized{Base: Polynomial{Degree: 2, Gamma: 1, Coef0: 0}},
	}
	for _, n := range []int{1, 2, 5, 17, 64, 65} {
		x := testRows(n, 3, int64(n))
		xb := linalg.FromRows(x)
		xb32 := linalg.FromRowsCols[float32](x, []int{0, 1, 2})
		for _, k := range kernels {
			g := linalg.NewMatrix(n, n)
			if !blockGramInto(g, k, xb) {
				t.Fatalf("%v: no block formula", k)
			}
			checkSymmetric(t, fmt.Sprintf("%v n=%d f64", k, n), g)
			g32 := linalg.NewDense[float32](n, n)
			if !blockGramInto(g32, k, xb32) {
				t.Fatalf("%v: no f32 block formula", k)
			}
			checkSymmetric(t, fmt.Sprintf("%v n=%d f32", k, n), g32)
			pw := linalg.NewDense[float32](n, n)
			pairwiseGramInto(pw, k, x)
			checkSymmetric(t, fmt.Sprintf("%v n=%d pairwise", k, n), pw)
		}
	}
}

func checkSymmetric[T linalg.Float](t *testing.T, what string, g *linalg.Dense[T]) {
	t.Helper()
	n := g.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Float64bits(float64(g.Data[i*n+j])) != math.Float64bits(float64(g.Data[j*n+i])) {
				t.Fatalf("%s: entry (%d,%d) = %v, (%d,%d) = %v", what, i, j, g.Data[i*n+j], j, i, g.Data[j*n+i])
			}
		}
	}
}
