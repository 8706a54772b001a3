package engine

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/partition"
	"repro/internal/stats"
)

func TestParseRoundTripsCanonicalSpellings(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
	}{
		{"exact", Float64},
		{"float64", Float64},
		{"f64", Float64},
		{"f32", Float32},
		{"float32", Float32},
		{"nystrom", Nystrom(0)},
		{"nystrom:256", Nystrom(256)},
		{"rff", RFF(0)},
		{"rff:128", RFF(128)},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// The canonical spelling re-parses to the same backend.
		again, err := Parse(got.String())
		if err != nil || again != got {
			t.Fatalf("Parse(String(%+v)) = %+v, %v", got, again, err)
		}
	}
	if Float64.String() != "exact" || Float32.String() != "f32" || Nystrom(256).String() != "nystrom:256" || RFF(0).String() != "rff" {
		t.Fatalf("unexpected canonical spellings: %q %q %q %q", Float64, Float32, Nystrom(256), RFF(0))
	}
}

func TestParseRejectsBadSpellingsLoudly(t *testing.T) {
	for _, in := range []string{"auto", "bogus", "nystrom:0", "nystrom:-1", "nystrom:x", "exact:5", "f32:8", ""} {
		if _, err := Parse(in); err == nil {
			t.Fatalf("Parse(%q) unexpectedly succeeded", in)
		}
	}
}

func TestZeroBackendIsFloat64(t *testing.T) {
	var b Backend
	if b != Float64 {
		t.Fatalf("zero Backend = %+v, want Float64", b)
	}
	if b.IsApprox() || Float32.IsApprox() {
		t.Fatal("exact backends must not report IsApprox")
	}
	if !Nystrom(8).IsApprox() || !RFF(8).IsApprox() {
		t.Fatal("approx backends must report IsApprox")
	}
}

func TestAutoSelectionTable(t *testing.T) {
	cases := []struct {
		n         int
		alignment bool
		want      Backend
	}{
		{500, false, Float64},
		{1024, false, Float64},
		{1025, false, Float32},
		{4096, false, Float32},
		{4097, false, Nystrom(DefaultAutoRank)},
		{2048, true, Float64},
		{2049, true, Float32},
		{8192, true, Float32},
		{8193, true, Nystrom(DefaultAutoRank)},
	}
	for _, c := range cases {
		if got := Auto(c.n, c.alignment); got != c.want {
			t.Fatalf("Auto(%d, %v) = %v, want %v", c.n, c.alignment, got, c.want)
		}
	}
}

// synthRows builds a deterministic synthetic dataset: n rows, d features.
func synthRows(n, d int, seed int64) [][]float64 {
	rng := stats.NewRNG(seed)
	x := make([][]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
	}
	return x
}

func checkTol32(t *testing.T, name string, got float32, want float64) {
	t.Helper()
	bound := Tol32 * math.Max(1, math.Abs(want))
	if diff := math.Abs(float64(got) - want); diff > bound {
		t.Fatalf("%s: f32 %v vs f64 %v differ by %g (> %g)", name, got, want, diff, bound)
	}
}

func TestDense32GramWithinToleranceOfFloat64Reference(t *testing.T) {
	const n, d = 60, 5
	x := synthRows(n, d, 3)
	parts := []partition.Partition{
		partition.Coarsest(d),
		partition.Finest(d),
		partition.FromRGS([]int{0, 0, 1, 1, 2}),
	}
	factories := map[string]kernel.BlockKernelFactory{
		"rbf":    kernel.RBFFactory(1.0),
		"linear": kernel.LinearFactory(),
		"norm":   kernel.NormalizedFactory(kernel.RBFFactory(0.7)),
		"poly": func(feats []int) kernel.Kernel {
			return kernel.Polynomial{Degree: 2, Gamma: 1 / float64(len(feats)), Coef0: 1}
		},
	}
	for fname, factory := range factories {
		for _, comb := range []kernel.Combiner{kernel.CombineSum, kernel.CombineProduct} {
			c := kernel.NewDenseGramCache[float32](x, factory, 0)
			for _, p := range parts {
				got := c.GramForPartition(p, comb, nil)
				want := kernel.Gram(kernel.FromPartition(p, factory, comb), x)
				for i := range want.Data {
					checkTol32(t, fname+"/"+p.Key(), got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestDense32FallbackForEvalOnlyKernels(t *testing.T) {
	const n, d = 20, 3
	x := synthRows(n, d, 5)
	// A factory whose kernel type has no native f32 routine: the cache must
	// fall back to the scalar f64 path and truncate.
	factory := func(feats []int) kernel.Kernel { return evalOnly{gamma: 1 / float64(len(feats))} }
	c := kernel.NewDenseGramCache[float32](x, factory, 0)
	p := partition.Coarsest(d)
	got := c.GramForPartition(p, kernel.CombineSum, nil)
	want := kernel.GramPairwise(kernel.FromPartition(p, factory, kernel.CombineSum), x)
	for i := range want.Data {
		checkTol32(t, "fallback", got.Data[i], want.Data[i])
	}
}

// evalOnly is an RBF clone that does not implement BlockGramKernel.
type evalOnly struct{ gamma float64 }

func (k evalOnly) Eval(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		dd := a[i] - b[i]
		s += dd * dd
	}
	return math.Exp(-k.gamma * s)
}

func (k evalOnly) String() string { return "evalOnly" }

func TestGather32MatchesGatherInto(t *testing.T) {
	src64 := linalg.FromRows(synthRows(12, 12, 9))
	src32 := linalg.Convert[float32](nil, src64)
	rows := []int{4, 5, 6, 2, 9, 10}
	cols := linalg.RunsOf([]int{0, 1, 2, 7, 8})
	got := linalg.GatherInto(nil, src32, rows, cols)
	want := linalg.GatherInto(nil, src64, rows, cols)
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if float64(got.Data[i]) != float64(float32(want.Data[i])) {
			t.Fatalf("entry %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestSolver32MatchesRidgeReferenceWithinTolerance(t *testing.T) {
	const n, d = 50, 4
	x := synthRows(n, d, 11)
	y := make([]int, n)
	for i := range y {
		if x[i][0]+0.3*x[i][1] > 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	gram64 := kernel.Gram(kernel.RBF{Gamma: 0.5}, x)
	gram32 := linalg.Convert[float32](nil, gram64)

	const lambda = 1e-2
	var s kernelmachine.RidgeScratch[float32]
	beta32, err := kernelmachine.FitRidge(kernelmachine.Ridge{Lambda: lambda}, gram32, y, &s)
	if err != nil {
		t.Fatalf("FitRidge: %v", err)
	}
	model, err := kernelmachine.Ridge{Lambda: lambda}.TrainScratch(gram64, y, &kernelmachine.Scratch{})
	if err != nil {
		t.Fatalf("TrainScratch: %v", err)
	}
	scores32 := linalg.MulVecInto(nil, gram32, beta32)
	scores64 := model.Scores(gram64)
	for i := range scores64 {
		if diff := math.Abs(scores32[i] - scores64[i]); diff > 1e-3*math.Max(1, math.Abs(scores64[i])) {
			t.Fatalf("score %d: f32 %v vs f64 %v (diff %g)", i, scores32[i], scores64[i], diff)
		}
	}
}

func TestSolver32HeavierRidgeFallback(t *testing.T) {
	// A rank-1 Gram with a tiny lambda: the first assembly's diagonal bump
	// (λ·n/10) vanishes in float32, the Cholesky pivot fails, and the
	// heavier 1+λ·n fallback must rescue the solve — the same schedule as
	// kernelmachine.Ridge.
	const n = 8
	gram := linalg.NewDense[float32](n, n)
	for i := range gram.Data {
		gram.Data[i] = 1
	}
	y := make([]int, n)
	for i := range y {
		y[i] = 1 - 2*(i%2)
	}
	var s kernelmachine.RidgeScratch[float32]
	beta, err := kernelmachine.FitRidge(kernelmachine.Ridge{Lambda: 1e-9}, gram, y, &s)
	if err != nil {
		t.Fatalf("FitRidge with fallback: %v", err)
	}
	for _, b := range beta {
		if math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			t.Fatalf("non-finite coefficient %v", b)
		}
	}
}

func TestCenterAndAlignment32MatchFloat64WithinTolerance(t *testing.T) {
	const n, d = 40, 4
	x := synthRows(n, d, 13)
	y := make([]int, n)
	for i := range y {
		if x[i][0] > 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	g64 := kernel.Gram(kernel.RBF{Gamma: 0.5}, x)
	g32 := linalg.Convert[float32](nil, g64)

	kernel.Center(g64)
	kernel.Center(g32)
	for i := range g64.Data {
		checkTol32(t, "center", g32.Data[i], g64.Data[i])
	}
	a64 := kernel.Alignment(g64, y)
	a32 := kernel.Alignment(g32, y)
	if diff := math.Abs(a32 - a64); diff > 5e-4 {
		t.Fatalf("alignment: f32 %v vs f64 %v (diff %g)", a32, a64, diff)
	}
}

func TestCholesky32SolvesSPDSystem(t *testing.T) {
	const n = 6
	// A = B·Bᵀ + I is SPD.
	b64 := linalg.FromRows(synthRows(n, n, 17))
	a64 := linalg.SyrkInto(nil, b64)
	a64.AddScaledDiag(1)
	a32 := linalg.Convert[float32](nil, a64)

	var l linalg.Dense[float32]
	if err := linalg.CholeskyInto(&l, a32); err != nil {
		t.Fatalf("CholeskyInto: %v", err)
	}
	rhs := make([]float32, n)
	for i := range rhs {
		rhs[i] = float32(i + 1)
	}
	sol := linalg.SolveCholeskyInto(nil, &l, rhs)
	// Verify A·sol ≈ rhs.
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += float64(a32.At(i, j)) * float64(sol[j])
		}
		if diff := math.Abs(s - float64(rhs[i])); diff > 1e-3*math.Max(1, math.Abs(float64(rhs[i]))) {
			t.Fatalf("residual %d: A·x = %v, want %v", i, s, rhs[i])
		}
	}
	// The strict upper triangle of the factor is zeroed.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if l.At(i, j) != 0 {
				t.Fatalf("upper triangle (%d,%d) = %v, want 0", i, j, l.At(i, j))
			}
		}
	}
}
