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
//
// Matrices are Dense[T] over T ∈ Float (float32 | float64); Matrix is the
// float64 instantiation. The kernels both numeric widths run — the blas.go
// set plus CholeskyInto, SolveCholeskyInto and MulVecInto — are written
// once, generic over T, and the determinism contract in blas.go covers
// both widths.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"unsafe"
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

// Float is the element type of the dense kernels: float64 is the exact
// reference width, float32 the storage width of the f32 backend.
type Float interface{ ~float32 | ~float64 }

// Dense is a dense row-major matrix with elements of type T.
type Dense[T Float] struct {
	Rows, Cols int
	Data       []T // len Rows*Cols, row-major
}

// Matrix is the float64 dense matrix — the reference width every
// exactness contract in the repository is stated at.
type Matrix = Dense[float64]

// NewDense returns a zero matrix of the given shape.
func NewDense[T Float](rows, cols int) *Dense[T] {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Dense[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

// NewMatrix returns a zero float64 matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix { return NewDense[float64](rows, cols) }

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
func (m *Dense[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Row returns row i, sharing the matrix's backing storage.
func (m *Dense[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense[T]) Clone() *Dense[T] {
	out := NewDense[T](m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense[T]) T() *Dense[T] {
	out := NewDense[T](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product m * b, accumulated in T.
func (m *Dense[T]) Mul(b *Dense[T]) *Dense[T] {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch (%dx%d)*(%dx%d)", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewDense[T](m.Rows, b.Cols)
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
func (m *Dense[T]) MulVec(v []T) Vector {
	return MulVecInto(nil, m, v)
}

// MulVecInto computes m * v into dst, reusing dst's capacity when it
// suffices (a fresh vector is allocated only when it is short), and returns
// the length-m.Rows result — the scores-into step of every dual model,
// cross-Gram rows times coefficients. Each entry accumulates the row dot
// product left-to-right in float64 (the scores are float64 at every
// storage width), bit-identical to MulVec and, at float64, to Vector.Dot.
//
//iotml:hotpath
func MulVecInto[T Float](dst []float64, m *Dense[T], v []T) []float64 {
	if m.Cols != len(v) {
		//iotml:allow hotpathalloc -- cold shape-mismatch panic, never taken in steady state
		panic(fmt.Sprintf("linalg: MulVec shape mismatch (%dx%d)*%d", m.Rows, m.Cols, len(v)))
	}
	if cap(dst) < m.Rows {
		dst = make([]float64, m.Rows)
	}
	dst = dst[:m.Rows]
	d := m.Cols
	for i := range dst {
		s := 0.0
		for k, x := range m.Data[i*d : (i+1)*d] {
			s += float64(x) * float64(v[k])
		}
		dst[i] = s
	}
	return dst
}

// AddScaledDiag adds a, rounded once to T, to every diagonal entry in
// place (ridge/jitter).
func (m *Dense[T]) AddScaledDiag(a float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += T(a)
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
// pivot falls below the tolerance of T's precision (see pivotTol); l's
// contents are unspecified after an error.
//
//iotml:hotpath
func CholeskyInto[T Float](l, a *Dense[T]) error {
	if a.Rows != a.Cols {
		//iotml:allow hotpathalloc -- cold shape-error path, never taken in steady state
		return fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	tol := pivotTol[T]()
	*l = *Reshape(l, n, n)
	// Row-slice accesses replace At/Set index arithmetic in the inner
	// loops. Every subtraction accumulates in float64 and each factor
	// entry is rounded to T once, at its store; the subtraction order over
	// k is the historical element-wise one, so the float64 factor is
	// bit-identical to it.
	for j := 0; j < n; j++ {
		rowJ := l.Data[j*n : (j+1)*n]
		d := float64(a.Data[j*n+j])
		for _, v := range rowJ[:j] {
			d -= float64(v) * float64(v)
		}
		if d <= tol {
			return ErrSingular
		}
		rowJ[j] = T(math.Sqrt(d))
		piv := float64(rowJ[j])
		for i := j + 1; i < n; i++ {
			rowI := l.Data[i*n : (i+1)*n]
			s := float64(a.Data[i*n+j])
			for k, v := range rowI[:j] {
				s -= float64(v) * float64(rowJ[k])
			}
			rowI[j] = T(s / piv)
		}
		// Clear the strict upper triangle of this row so a recycled buffer
		// carries no stale entries and the factor equals Cholesky's output.
		for i := j + 1; i < n; i++ {
			rowJ[i] = 0
		}
	}
	return nil
}

// pivotTol is the Cholesky pivot tolerance at T's precision: 1e-14 for
// float64, and 1e-7 — the same margin scaled to float32's precision — for
// float32, so a pivot the narrower storage cannot resolve fails into the
// caller's heavier-ridge fallback.
func pivotTol[T Float]() float64 {
	if unsafe.Sizeof(T(0)) == 4 {
		return 1e-7
	}
	return 1e-14
}

// SolveCholeskyInto solves A x = b given the Cholesky factor L of A,
// writing the solution into dst (reused when its capacity suffices,
// reallocated otherwise) and returning it. Sums accumulate in float64 and
// each solution entry is rounded to T once. The substitutions run in place
// over one buffer in an order that never reads an overwritten entry, so the
// result does not depend on dst's prior contents. dst must not alias b.
//
//iotml:hotpath
func SolveCholeskyInto[T Float](dst []T, l *Dense[T], b []T) []T {
	n := l.Rows
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	ld := l.Data
	// Forward substitution: dst holds y.
	for i := 0; i < n; i++ {
		s := float64(b[i])
		for k, v := range ld[i*n : i*n+i] {
			s -= float64(v) * float64(dst[k])
		}
		dst[i] = T(s / float64(ld[i*n+i]))
	}
	// Backward substitution in place: position i still holds y[i] when it is
	// read, positions above i already hold x.
	for i := n - 1; i >= 0; i-- {
		s := float64(dst[i])
		for k := i + 1; k < n; k++ {
			s -= float64(ld[k*n+i]) * float64(dst[k])
		}
		dst[i] = T(s / float64(ld[i*n+i]))
	}
	return dst
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
