package kernel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/partition"
	"repro/internal/stats"
)

func TestLinearKernel(t *testing.T) {
	if got := (Linear{}).Eval([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Errorf("linear = %v, want 11", got)
	}
}

func TestPolynomialKernel(t *testing.T) {
	k := Polynomial{Degree: 2, Gamma: 1, Coef0: 1}
	// (1*11 + 1)^2 = 144.
	if got := k.Eval([]float64{1, 2}, []float64{3, 4}); got != 144 {
		t.Errorf("poly = %v, want 144", got)
	}
}

func TestRBFKernel(t *testing.T) {
	k := RBF{Gamma: 0.5}
	if got := k.Eval([]float64{1, 1}, []float64{1, 1}); got != 1 {
		t.Errorf("rbf(x,x) = %v, want 1", got)
	}
	want := math.Exp(-0.5 * 8) // ||(1,1)-(3,3)||² = 8
	if got := k.Eval([]float64{1, 1}, []float64{3, 3}); math.Abs(got-want) > 1e-12 {
		t.Errorf("rbf = %v, want %v", got, want)
	}
}

func TestRBFIsProductOverFeatures(t *testing.T) {
	// The doc-comment claim: RBF over a block equals the product of
	// per-feature RBFs — the paper's multiplicative aggregation.
	f := func(a1, a2, b1, b2 float64) bool {
		if math.IsNaN(a1 + a2 + b1 + b2) {
			return true
		}
		a1, a2, b1, b2 = clamp(a1), clamp(a2), clamp(b1), clamp(b2)
		joint := RBF{Gamma: 0.3}.Eval([]float64{a1, a2}, []float64{b1, b2})
		prod := RBF{Gamma: 0.3}.Eval([]float64{a1}, []float64{b1}) *
			RBF{Gamma: 0.3}.Eval([]float64{a2}, []float64{b2})
		return math.Abs(joint-prod) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clamp(x float64) float64 {
	if x > 10 {
		return 10
	}
	if x < -10 {
		return -10
	}
	return x
}

func TestSubspaceKernel(t *testing.T) {
	k := Subspace{Base: Linear{}, Features: []int{1, 2}}
	x := []float64{100, 1, 2}
	y := []float64{-100, 3, 4}
	if got := k.Eval(x, y); got != 11 {
		t.Errorf("subspace = %v, want 11 (feature 0 ignored)", got)
	}
}

func TestSumAndProduct(t *testing.T) {
	a := Subspace{Base: Linear{}, Features: []int{0}}
	b := Subspace{Base: Linear{}, Features: []int{1}}
	x := []float64{2, 3}
	y := []float64{5, 7}
	sum := Sum{Kernels: []Kernel{a, b}}
	if got := sum.Eval(x, y); got != 10+21 {
		t.Errorf("sum = %v, want 31", got)
	}
	weighted := Sum{Kernels: []Kernel{a, b}, Weights: []float64{2, 0}}
	if got := weighted.Eval(x, y); got != 20 {
		t.Errorf("weighted = %v, want 20", got)
	}
	prod := Product{Kernels: []Kernel{a, b}}
	if got := prod.Eval(x, y); got != 210 {
		t.Errorf("prod = %v, want 210", got)
	}
}

func TestFromPartitionSum(t *testing.T) {
	p := partition.MustFromBlocks(4, [][]int{{1, 2}, {3, 4}})
	k := FromPartition(p, LinearFactory(), CombineSum)
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 6, 7, 8}
	// block1: 1*5+2*6 = 17; block2: 3*7+4*8 = 53; mean = 35.
	if got := k.Eval(x, y); got != 35 {
		t.Errorf("partition kernel = %v, want 35", got)
	}
}

func TestFromPartitionProductRBFEqualsGlobalRBF(t *testing.T) {
	// With per-feature RBF blocks and product combination, the partition
	// kernel collapses to a global RBF — the ablation baseline.
	p := partition.Finest(3)
	factory := func(feats []int) Kernel { return RBF{Gamma: 0.2} }
	k := FromPartition(p, factory, CombineProduct)
	global := RBF{Gamma: 0.2}
	x := []float64{1, -2, 0.5}
	y := []float64{0, 1, 2}
	if got, want := k.Eval(x, y), global.Eval(x, y); math.Abs(got-want) > 1e-12 {
		t.Errorf("product of singleton RBFs = %v, want global %v", got, want)
	}
}

func TestGramSymmetricPSDish(t *testing.T) {
	rng := stats.NewRNG(1)
	x := make([][]float64, 12)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	g := Gram(RBF{Gamma: 0.7}, x)
	for i := 0; i < g.Rows; i++ {
		if math.Abs(g.At(i, i)-1) > 1e-12 {
			t.Errorf("diag[%d] = %v, want 1", i, g.At(i, i))
		}
		for j := 0; j < g.Cols; j++ {
			if g.At(i, j) != g.At(j, i) {
				t.Fatal("gram not symmetric")
			}
		}
	}
	// PSD check via Cholesky with jitter.
	gj := g.Clone()
	gj.AddScaledDiag(1e-9)
	if err := linalg.CholeskyInto(new(linalg.Matrix), gj); err != nil {
		t.Errorf("RBF gram not PSD: %v", err)
	}
}

func TestCrossGram(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := [][]float64{{1, 1}}
	g := CrossGram(Linear{}, a, b)
	if g.Rows != 2 || g.Cols != 1 {
		t.Fatalf("shape %dx%d", g.Rows, g.Cols)
	}
	if g.At(0, 0) != 1 || g.At(1, 0) != 1 {
		t.Errorf("cross gram wrong: %v", g.Data)
	}
}

// TestCenter checks the centering oracle that CenteredAlignment is pinned
// to: the rows of a centered Gram sum to zero.
func TestCenter(t *testing.T) {
	rng := stats.NewRNG(2)
	x := make([][]float64, 8)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	g := Gram(Linear{}, x)
	refCenter(g)
	// Row sums of a centered Gram matrix vanish.
	for i := 0; i < g.Rows; i++ {
		s := 0.0
		for j := 0; j < g.Cols; j++ {
			s += g.At(i, j)
		}
		if math.Abs(s) > 1e-9 {
			t.Errorf("row %d sum = %v after centering", i, s)
		}
	}
}

func TestAlignmentDiscriminates(t *testing.T) {
	// A kernel matching the label structure has higher alignment than one
	// built from noise features.
	rng := stats.NewRNG(3)
	n := 40
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = 1
		if i%2 == 0 {
			y[i] = -1
		}
		signal := float64(y[i]) + rng.NormFloat64()*0.2
		noise := rng.NormFloat64()
		x[i] = []float64{signal, noise}
	}
	gSig := Gram(Subspace{Base: Linear{}, Features: []int{0}}, x)
	gNoise := Gram(Subspace{Base: Linear{}, Features: []int{1}}, x)
	aSig := CenteredAlignment(gSig.UpperRows(nil), y)
	aNoise := CenteredAlignment(gNoise.UpperRows(nil), y)
	if aSig <= aNoise {
		t.Errorf("alignment: signal %v <= noise %v", aSig, aNoise)
	}
	if aSig < 0.5 {
		t.Errorf("signal alignment = %v, want > 0.5", aSig)
	}
}

func TestAlignmentDegenerate(t *testing.T) {
	if CenteredAlignment(linalg.NewMatrix(0, 0).UpperRows(nil), nil) != 0 {
		t.Error("empty alignment should be 0")
	}
	z := linalg.NewMatrix(2, 2)
	if CenteredAlignment(z.UpperRows(nil), []int{1, -1}) != 0 {
		t.Error("zero kernel alignment should be 0")
	}
}

func TestStringMethods(t *testing.T) {
	// Smoke tests so configuration dumps stay readable.
	for _, k := range []Kernel{
		Linear{}, Polynomial{Degree: 2, Gamma: 1, Coef0: 0}, RBF{Gamma: 1},
		Subspace{Base: Linear{}, Features: []int{0}},
		Sum{Kernels: []Kernel{Linear{}}}, Product{Kernels: []Kernel{Linear{}}},
	} {
		if k.String() == "" {
			t.Errorf("%T has empty String()", k)
		}
	}
}

func TestNormalizedKernel(t *testing.T) {
	n := Normalized{Base: Linear{}}
	// Self-similarity is 1 for any nonzero vector.
	if got := n.Eval([]float64{3, 4}, []float64{3, 4}); math.Abs(got-1) > 1e-12 {
		t.Errorf("norm self = %v, want 1", got)
	}
	// Orthogonal vectors give 0; parallel give 1.
	if got := n.Eval([]float64{1, 0}, []float64{0, 1}); got != 0 {
		t.Errorf("norm orthogonal = %v, want 0", got)
	}
	if got := n.Eval([]float64{1, 1}, []float64{5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("norm parallel = %v, want 1", got)
	}
	// Degenerate zero vector yields 0 rather than NaN.
	if got := n.Eval([]float64{0, 0}, []float64{1, 1}); got != 0 {
		t.Errorf("norm degenerate = %v, want 0", got)
	}
	if n.String() == "" {
		t.Error("empty String")
	}
}

func TestNormalizedFactory(t *testing.T) {
	f := NormalizedFactory(LinearFactory())
	k := f([]int{0})
	if _, ok := k.(Normalized); !ok {
		t.Fatalf("factory returned %T, want Normalized", k)
	}
}

func TestNormalizedBoundedProperty(t *testing.T) {
	// |K'(x,y)| <= 1 for the linear base (Cauchy-Schwarz).
	f := func(a, b, c, d float64) bool {
		x := []float64{clamp(a), clamp(b)}
		y := []float64{clamp(c), clamp(d)}
		v := (Normalized{Base: Linear{}}).Eval(x, y)
		return v >= -1-1e-9 && v <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
