package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := (Vector{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	u := v.Clone()
	u.AddScaled(2, w)
	want := Vector{9, 12, 15}
	for i := range want {
		if u[i] != want[i] {
			t.Errorf("AddScaled[%d] = %v, want %v", i, u[i], want[i])
		}
	}
	if v[0] != 1 {
		t.Error("Clone did not protect the original")
	}
	s := w.Sub(v)
	for i, want := range []float64{3, 3, 3} {
		if s[i] != want {
			t.Errorf("Sub[%d] = %v, want %v", i, s[i], want)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("C[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T shape = %dx%d, want 3x2", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("transpose values wrong: %v", at.Data)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}})
	b := Vector{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, Vector{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(NewMatrix(2, 3), Vector{1, 2}); err == nil {
		t.Error("expected error for non-square matrix")
	}
	if _, err := Solve(NewMatrix(2, 2), Vector{1}); err == nil {
		t.Error("expected error for rhs length mismatch")
	}
}

func TestCholeskyAndSolve(t *testing.T) {
	a := FromRows([][]float64{{4, 2, 0}, {2, 5, 3}, {0, 3, 6}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Check L Lᵀ = A.
	rec := l.Mul(l.T())
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEqual(rec.At(i, j), a.At(i, j), 1e-9) {
				t.Errorf("LLᵀ[%d][%d] = %v, want %v", i, j, rec.At(i, j), a.At(i, j))
			}
		}
	}
	b := Vector{2, 1, 9}
	x := solveCholesky(l, b)
	ax := a.MulVec(x)
	for i := range b {
		if !almostEqual(ax[i], b[i], 1e-9) {
			t.Errorf("Ax[%d] = %v, want %v", i, ax[i], b[i])
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Error("expected error for non-square input")
	}
}

func TestSolveSPD(t *testing.T) {
	a := FromRows([][]float64{{3, 1}, {1, 2}})
	x, err := solveSPD(a, Vector{9, 8})
	if err != nil {
		t.Fatal(err)
	}
	// 3x + y = 9, x + 2y = 8 -> x = 2, y = 3.
	if !almostEqual(x[0], 2, 1e-9) || !almostEqual(x[1], 3, 1e-9) {
		t.Errorf("x = %v, want [2 3]", x)
	}
}

// TestSolveSPDRejectsIndefinite: a matrix that is not positive definite
// fails the Cholesky step with an error instead of returning a solution.
func TestSolveSPDRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3 and -1
	if x, err := solveSPD(a, Vector{1, 1}); err == nil {
		t.Fatalf("solveSPD on an indefinite matrix returned %v, want error", x)
	}
}

// TestRowSharesStorage: Row is a view, so writes through it land in the
// matrix and it spans exactly one row.
func TestRowSharesStorage(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	r := m.Row(1)
	if len(r) != 3 || r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v, want [4 5 6]", r)
	}
	r[1] = -5
	if m.At(1, 1) != -5 || m.At(0, 1) != 2 {
		t.Errorf("write through Row(1) gave matrix %v", m.Data)
	}
}

func TestPowerIteration(t *testing.T) {
	a := FromRows([][]float64{{2, 0}, {0, 1}})
	lambda, v, err := PowerIteration(a, 500, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(lambda, 2, 1e-8) {
		t.Errorf("lambda = %v, want 2", lambda)
	}
	if !almostEqual(math.Abs(v[0]), 1, 1e-6) || !almostEqual(v[1], 0, 1e-6) {
		t.Errorf("v = %v, want ±e1", v)
	}
}

func TestSolveRandomSPDProperty(t *testing.T) {
	// Property: for random SPD A = M Mᵀ + I and random b, SolveSPD returns x
	// with A x ≈ b.
	rng := rand.New(rand.NewSource(7))
	f := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		n := 2 + r.Intn(6)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		a := m.Mul(m.T())
		a.AddScaledDiag(1)
		b := NewVector(n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := solveSPD(a, b)
		if err != nil {
			return false
		}
		ax := a.MulVec(x)
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

// solveSPD solves A x = b for symmetric positive-definite A through the
// allocating Cholesky path — the reference the scratch solves are checked
// against.
func solveSPD(a *Matrix, b Vector) (Vector, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return solveCholesky(l, b), nil
}

// solveCholesky solves A x = b given the Cholesky factor L of A into a
// fresh vector.
func solveCholesky(l *Matrix, b Vector) Vector { return SolveCholeskyInto(nil, l, b) }
