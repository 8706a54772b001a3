package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// rbfGram builds the exact RBF Gram exp(-gamma·‖xᵢ-xⱼ‖²) of the rows of x.
func rbfGram(x *Matrix, gamma float64) *Matrix {
	k := NewMatrix(x.Rows, x.Rows)
	for i := 0; i < x.Rows; i++ {
		xi := x.Data[i*x.Cols : (i+1)*x.Cols]
		for j := 0; j < x.Rows; j++ {
			xj := x.Data[j*x.Cols : (j+1)*x.Cols]
			d2 := 0.0
			for c := range xi {
				d := xi[c] - xj[c]
				d2 += d * d
			}
			k.Set(i, j, math.Exp(-gamma*d2))
		}
	}
	return k
}

func randomMatrix(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// At full rank (landmarks = every point, C = W = K) the Nyström factor must
// reconstruct the Gram to within the jitter — the ≤1e-9 exactness contract
// of the approximate engine.
func TestNystromFactorFullRankExact(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		x := randomMatrix(24, 3, rng)
		k := rbfGram(x, 0.7)
		f, err := NystromFactorInto(nil, k, k, 1e-10)
		if err != nil {
			t.Fatalf("seed %d: NystromFactorInto: %v", seed, err)
		}
		rec := UnpackInto(nil, SyrkInto(nil, f))
		for i := range k.Data {
			if math.Abs(rec.Data[i]-k.Data[i]) > 1e-9 {
				t.Fatalf("seed %d: |K̂-K|[%d] = %g > 1e-9", seed, i, math.Abs(rec.Data[i]-k.Data[i]))
			}
		}
	}
}

// A singular landmark Gram (duplicate landmark rows, no jitter) must surface
// ErrSingular so callers can escalate the jitter.
func TestNystromFactorSingularW(t *testing.T) {
	w := NewMatrix(2, 2)
	w.Set(0, 0, 1)
	w.Set(0, 1, 1)
	w.Set(1, 0, 1)
	w.Set(1, 1, 1)
	c := NewMatrix(3, 2)
	if _, err := NystromFactorInto(nil, c, w, 0); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	// Escalated jitter repairs it.
	if _, err := NystromFactorInto(nil, c, w, 1e-6); err != nil {
		t.Fatalf("jittered factor failed: %v", err)
	}
}

// The RFF map is an unbiased Monte-Carlo estimate of the RBF Gram; at a
// fixed seed and a generous feature count the elementwise error must sit
// inside the O(1/√dHalf) band.
func TestRFFMapApproximatesRBF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randomMatrix(30, 4, rng)
	gamma := 0.5
	k := rbfGram(x, gamma)
	dHalf := 4096
	freq := NewMatrix(dHalf, x.Cols)
	sd := math.Sqrt(2 * gamma)
	for i := range freq.Data {
		freq.Data[i] = sd * rng.NormFloat64()
	}
	f := RFFMapInto(nil, x, freq, math.Sqrt(1/float64(dHalf)))
	rec := UnpackInto(nil, SyrkInto(nil, f))
	maxErr := 0.0
	for i := range k.Data {
		if e := math.Abs(rec.Data[i] - k.Data[i]); e > maxErr {
			maxErr = e
		}
	}
	// 4/√dHalf ≈ 0.0625 — loose enough to be stable at any fixed seed,
	// tight enough to catch a broken map (errors would be O(1)).
	if maxErr > 4/math.Sqrt(float64(dHalf)) {
		t.Fatalf("max |K̂-K| = %g, want <= %g", maxErr, 4/math.Sqrt(float64(dHalf)))
	}
	// Diagonal is exact by construction: cos²+sin² sums to 1.
	for i := 0; i < x.Rows; i++ {
		if math.Abs(rec.At(i, i)-1) > 1e-12 {
			t.Fatalf("diag[%d] = %g, want 1", i, rec.At(i, i))
		}
	}
}

func TestSyrkTIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randomMatrix(13, 5, rng)
	got := SyrkTInto(nil, x)
	for i := 0; i < x.Cols; i++ {
		for j := 0; j < x.Cols; j++ {
			want := 0.0
			for r := 0; r < x.Rows; r++ {
				want += x.At(r, i) * x.At(r, j)
			}
			if math.Abs(got.At(i, j)-want) > 1e-12 {
				t.Fatalf("XᵀX[%d][%d] = %g, want %g", i, j, got.At(i, j), want)
			}
		}
	}
	// Reuse path: same backing array, same result.
	again := SyrkTInto(got, x)
	if &again.Data[0] != &got.Data[0] {
		t.Fatal("SyrkTInto reallocated a correctly-sized dst")
	}
}

func TestMulTVecIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randomMatrix(9, 4, rng)
	v := NewVector(9)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	got := MulTVecInto(nil, m, v)
	for j := 0; j < m.Cols; j++ {
		want := 0.0
		for r := 0; r < m.Rows; r++ {
			want += m.At(r, j) * v[r]
		}
		if math.Abs(got[j]-want) > 1e-12 {
			t.Fatalf("Mᵀv[%d] = %g, want %g", j, got[j], want)
		}
	}
}

// Primal ridge on the factor must agree with dual (kernel) ridge on the
// materialized Gram K = F·Fᵀ: scores F_te·β with β = (FᵀF+λI)⁻¹Fᵀy equal
// K_te·α with α = (K+λI)⁻¹y.
func TestPrimalDualRidgeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, r, lam := 18, 6, 0.37
	f := randomMatrix(n, r, rng)
	y := NewVector(n)
	for i := range y {
		y[i] = float64(2*(i%2) - 1)
	}
	// Dual: α = (FFᵀ + λI)⁻¹ y, scores s_i = row_i(FFᵀ)·α.
	k := UnpackInto(nil, SyrkInto(nil, f))
	kreg := NewMatrix(n, n)
	copy(kreg.Data, k.Data)
	kreg.AddScaledDiag(lam)
	alpha, err := solveSPD(kreg, y)
	if err != nil {
		t.Fatalf("dual solve: %v", err)
	}
	dual := MulVecInto(nil, k, alpha)
	// Primal: β = (FᵀF + λI)⁻¹ Fᵀy, scores s = F·β.
	a := SyrkTInto(nil, f)
	a.AddScaledDiag(lam)
	rhs := MulTVecInto(nil, f, y)
	beta, err := solveSPD(a, rhs)
	if err != nil {
		t.Fatalf("primal solve: %v", err)
	}
	primal := MulVecInto(nil, f, beta)
	for i := range dual {
		if math.Abs(primal[i]-dual[i]) > 1e-9 {
			t.Fatalf("score[%d]: primal %g vs dual %g", i, primal[i], dual[i])
		}
	}
}
