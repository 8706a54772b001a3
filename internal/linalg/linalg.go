// Package linalg is a small dense linear-algebra library used by the kernel
// machines, multiple kernel learning, and subspace learning packages.
//
// Go's machine-learning ecosystem is thin and this repository is stdlib-only,
// so the handful of primitives the paper's methods need — vector arithmetic,
// Cholesky factorization, linear solves, and dominant-eigenpair extraction by
// power iteration — are implemented here from scratch. The dense level-3
// building blocks feeding the vectorized Gram engine (SyrkInto, GemmNTInto,
// pairwise squared distances, column-block extraction) live in blas.go and
// carry an explicit determinism contract relied on by internal/kernel.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular (or not positive definite, for Cholesky) to working
// precision.
var ErrSingular = errors.New("linalg: matrix is singular or not positive definite")

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product <v, w>. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	s := 0.0
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// AddScaled sets v = v + a*w in place and returns v.
func (v Vector) AddScaled(a float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
	return v
}

// Scale multiplies v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Sub returns v - w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	out := v.Clone()
	out.AddScaled(-1, w)
	return out
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share one length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("linalg: FromRows ragged input: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a Vector sharing the matrix's backing storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product m * b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch (%dx%d)*(%dx%d)", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns m * v.
func (m *Matrix) MulVec(v Vector) Vector {
	return MulVecInto(nil, m, v)
}

// MulVecInto computes m * v into dst, reusing dst's capacity when it
// suffices (a fresh vector is allocated only when it is short), and returns
// the length-m.Rows result. Each entry accumulates the row dot product
// left-to-right, bit-identical to MulVec.
//
//iotml:hotpath
func MulVecInto(dst Vector, m *Matrix, v Vector) Vector {
	if m.Cols != len(v) {
		//iotml:allow hotpathalloc -- cold shape-mismatch panic, never taken in steady state
		panic(fmt.Sprintf("linalg: MulVec shape mismatch (%dx%d)*%d", m.Rows, m.Cols, len(v)))
	}
	if cap(dst) < m.Rows {
		dst = NewVector(m.Rows)
	}
	dst = dst[:m.Rows]
	for i := 0; i < m.Rows; i++ {
		dst[i] = Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(v)
	}
	return dst
}

// AddScaledDiag adds a to every diagonal entry in place (ridge/jitter).
func (m *Matrix) AddScaledDiag(a float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += a
	}
}

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive-definite matrix. It returns ErrSingular if a pivot
// falls below tolerance.
func Cholesky(a *Matrix) (*Matrix, error) {
	l := NewMatrix(a.Rows, a.Cols)
	if err := CholeskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyInto factors A = L Lᵀ into the caller-owned matrix l (non-nil),
// which is resized via Reshape (so hot paths reuse one factor buffer across
// many solves of alternating sizes). The written factor — lower triangle,
// diagonal, and zeroed strict upper triangle — is bit-identical to the
// matrix Cholesky returns. l must not alias a. It returns ErrSingular if a
// pivot falls below tolerance; l's contents are unspecified after an error.
//
//iotml:hotpath
func CholeskyInto(l, a *Matrix) error {
	if a.Rows != a.Cols {
		//iotml:allow hotpathalloc -- cold shape-error path, never taken in steady state
		return fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	*l = *Reshape(l, n, n)
	// Row-slice accesses replace At/Set index arithmetic in the inner
	// loops; the subtraction order over k is unchanged, so the factor is
	// bit-identical to the historical element-wise formulation.
	for j := 0; j < n; j++ {
		rowJ := l.Data[j*n : (j+1)*n]
		d := a.Data[j*n+j]
		for _, v := range rowJ[:j] {
			d -= v * v
		}
		if d <= 1e-14 {
			return ErrSingular
		}
		rowJ[j] = math.Sqrt(d)
		piv := rowJ[j]
		for i := j + 1; i < n; i++ {
			rowI := l.Data[i*n : (i+1)*n]
			s := a.Data[i*n+j]
			for k, v := range rowI[:j] {
				s -= v * rowJ[k]
			}
			rowI[j] = s / piv
		}
		// Clear the strict upper triangle of this row so a recycled buffer
		// carries no stale entries and the factor equals Cholesky's output.
		for i := j + 1; i < n; i++ {
			rowJ[i] = 0
		}
	}
	return nil
}

// SolveCholesky solves A x = b given the Cholesky factor L of A, by forward
// then backward substitution.
func SolveCholesky(l *Matrix, b Vector) Vector {
	return SolveCholeskyInto(nil, l, b)
}

// SolveCholeskyInto solves A x = b given the Cholesky factor L of A,
// writing the solution into dst (reused when its capacity suffices,
// reallocated otherwise) and returning it. The substitutions run in place
// over one buffer in an order that never reads an overwritten entry, so the
// result is bit-identical to SolveCholesky. dst must not alias b.
//
//iotml:hotpath
func SolveCholeskyInto(dst Vector, l *Matrix, b Vector) Vector {
	n := l.Rows
	if cap(dst) < n {
		dst = NewVector(n)
	}
	dst = dst[:n]
	// Forward substitution: dst holds y.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * dst[k]
		}
		dst[i] = s / l.At(i, i)
	}
	// Backward substitution in place: position i still holds y[i] when it is
	// read, positions above i already hold x.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * dst[k]
		}
		dst[i] = s / l.At(i, i)
	}
	return dst
}

// SolveSPD solves A x = b for symmetric positive-definite A via Cholesky.
func SolveSPD(a *Matrix, b Vector) (Vector, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return SolveCholesky(l, b), nil
}

// Solve solves the square system A x = b by Gaussian elimination with
// partial pivoting. A is not modified.
func Solve(a *Matrix, b Vector) (Vector, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Solve on non-square %dx%d matrix", a.Rows, a.Cols)
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: Solve rhs length %d, want %d", len(b), a.Rows)
	}
	n := a.Rows
	m := a.Clone()
	x := b.Clone()
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, best := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				piv, best = r, v
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if piv != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[piv*n+j] = m.Data[piv*n+j], m.Data[col*n+j]
			}
			x[col], x[piv] = x[piv], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Data[r*n+j] -= f * m.Data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// PowerIteration returns the dominant eigenvalue and unit eigenvector of a
// symmetric matrix, using maxIter iterations or stopping when successive
// eigenvalue estimates differ by less than tol.
func PowerIteration(a *Matrix, maxIter int, tol float64) (float64, Vector, error) {
	if a.Rows != a.Cols {
		return 0, nil, fmt.Errorf("linalg: PowerIteration on non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if n == 0 {
		return 0, nil, errors.New("linalg: PowerIteration on empty matrix")
	}
	v := NewVector(n)
	// Deterministic start that is unlikely to be orthogonal to the dominant
	// eigenvector: decaying positive entries.
	for i := range v {
		v[i] = 1 / float64(i+1)
	}
	v.Scale(1 / v.Norm())
	lambda := 0.0
	for it := 0; it < maxIter; it++ {
		w := a.MulVec(v)
		nw := w.Norm()
		if nw < 1e-300 {
			return 0, v, nil // a v = 0: eigenvalue 0
		}
		w.Scale(1 / nw)
		next := w.Dot(a.MulVec(w))
		if it > 0 && math.Abs(next-lambda) < tol {
			return next, w, nil
		}
		lambda, v = next, w
	}
	return lambda, v, nil
}
