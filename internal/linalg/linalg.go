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
//
// This package holds all of the module's assembly (simd_amd64.s) and its
// one CPU probe, cpuFeatures, which runs CPUID and XGETBV once and sets
// every dispatch flag. On amd64 hosts with AVX2 the float64 CholeskyInto,
// SyrkTInto, AccumulateScaled and AccumulateProduct run on AVX2
// micro-kernels. Where the same pass also finds AVX512F (leaf 7 EBX bit
// 16) and XGETBV reports the opmask and ZMM state saved (XCR0 bits 5–7),
// CholeskyInto takes its column blocks eight at a time on AVX-512 kernels
// first and finishes the last n mod 8 columns on the AVX2 block and the
// Go loop. Every tier keeps
// every bit under one rule: vectorize across independent outputs, never
// along a reduction. Each lane replays one entry's scalar sequence — a
// float64 accumulator, ascending k, a multiply then a separate subtract or
// add (never a fused multiply-add), one store. The Cholesky lanes hold
// four or eight columns of one row and read the finished columns from a
// transposed copy kept in place, in the factor's own strict upper
// triangle, which is cleared before CholeskyInto returns. The Go loops are
// the reference and the fallback: they run at float32, off amd64, on hosts
// without AVX2, and in builds with the purego tag.
//
// ExpScaled, the RBF map of a Gram row segment, is the one kernel with
// fused operations: where the probe also finds FMA, its float64 lanes
// replay math.Exp's FMA branch, and they switch on only after a start-up
// check shows them equal to this process's math.Exp.
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

// Scale multiplies v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
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
// Rows are register-tiled, four per sweep over v, one accumulator each, so
// the four latency chains overlap.
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
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0 := m.Data[i*d:][:len(v)]
		r1 := m.Data[(i+1)*d:][:len(v)]
		r2 := m.Data[(i+2)*d:][:len(v)]
		r3 := m.Data[(i+3)*d:][:len(v)]
		var s0, s1, s2, s3 float64
		for k, x := range v {
			vk := float64(x)
			s0 += float64(r0[k]) * vk
			s1 += float64(r1[k]) * vk
			s2 += float64(r2[k]) * vk
			s3 += float64(r3[k]) * vk
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < len(dst); i++ {
		s := 0.0
		for k, x := range m.Data[i*d:][:len(v)] {
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
// At float64 on an AVX2 host (amd64, not built with the purego tag) the
// factor is computed by choleskyLanes, eight columns per sweep on an
// AVX-512 host and four otherwise; everywhere else by choleskyColumns, the
// Go column loop, which is also the reference the lanes are tested
// against. Both interleave outputs but never reorder the terms within an
// output, so every entry is the scalar column loop's, bit for bit.
//
//iotml:hotpath
func CholeskyInto[T Float](l, a *Dense[T]) error {
	if a.Rows != a.Cols {
		//iotml:allow hotpathalloc -- cold shape-error path, never taken in steady state
		return fmt.Errorf("linalg: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	*l = *Reshape(l, n, n)
	if ld, wide := asFloat64(l.Data); wide && useAVX2 && n >= 4 {
		ad, _ := asFloat64(a.Data[:n*n])
		return choleskyLanes(ld, ad, n)
	}
	return choleskyColumns(l.Data, a.Data, n, 0)
}

// choleskyColumns factors columns from..n-1 of the order-n matrix ad into
// ld, given the finished columns 0..from-1 (CholeskyInto passes from = 0),
// and clears the strict upper triangle of rows from..n-1.
//
// Below each pivot the column is register-tiled: one sweep over k updates
// four rows at once. Every subtraction accumulates in float64 over
// ascending k and each factor entry is rounded to T once, at its store, so
// the float64 factor is bit-identical to the historical element-wise loop.
func choleskyColumns[T Float](ld, ad []T, n, from int) error {
	tol := pivotTol[T]()
	for j := from; j < n; j++ {
		rowJ := ld[j*n : j*n+j]
		d := float64(ad[j*n+j])
		for _, v := range rowJ {
			d -= float64(v) * float64(v)
		}
		if d <= tol {
			return ErrSingular
		}
		ld[j*n+j] = T(math.Sqrt(d))
		piv := float64(ld[j*n+j])
		// Rows below the pivot in groups of four, one float64 accumulator
		// each; reslicing to len(rowJ) lets the compiler drop the inner
		// loop's bounds checks.
		i := j + 1
		for ; i+4 <= n; i += 4 {
			r0 := ld[i*n:][:len(rowJ)]
			r1 := ld[(i+1)*n:][:len(rowJ)]
			r2 := ld[(i+2)*n:][:len(rowJ)]
			r3 := ld[(i+3)*n:][:len(rowJ)]
			s0 := float64(ad[i*n+j])
			s1 := float64(ad[(i+1)*n+j])
			s2 := float64(ad[(i+2)*n+j])
			s3 := float64(ad[(i+3)*n+j])
			for k, v := range rowJ {
				vk := float64(v)
				s0 -= float64(r0[k]) * vk
				s1 -= float64(r1[k]) * vk
				s2 -= float64(r2[k]) * vk
				s3 -= float64(r3[k]) * vk
			}
			ld[i*n+j] = T(s0 / piv)
			ld[(i+1)*n+j] = T(s1 / piv)
			ld[(i+2)*n+j] = T(s2 / piv)
			ld[(i+3)*n+j] = T(s3 / piv)
		}
		// The rows left over, one at a time.
		for ; i < n; i++ {
			s := float64(ad[i*n+j])
			for k, v := range ld[i*n:][:len(rowJ)] {
				s -= float64(v) * float64(rowJ[k])
			}
			ld[i*n+j] = T(s / piv)
		}
		// Clear the strict upper triangle of this row so a recycled buffer
		// carries no stale entries and the factor equals Cholesky's output.
		clear(ld[j*n+j+1 : (j+1)*n])
	}
	return nil
}

// choleskyLanes is the float64 factorization on the SIMD kernels, for
// n >= 4. Columns go in blocks of w = 8 (AVX-512, while useAVX512 and
// eight columns remain), then w = 4 (AVX2, while four remain), and each
// block takes three steps:
//
//   - the tile kernel sums the diagonal w×w tile over k < j0, w columns in
//     the lanes of one register per row;
//   - the diagonal block is finished here in scalar: the terms
//     k = j0..c-1 in ascending order, the pivot test and square root, the
//     division;
//   - the panel kernel does the same for every row below, several rows
//     per sweep over k, then finishes each row's within-block terms and
//     divisions in the column loop's order.
//
// The lane operand L[j0..j0+w-1][k] is a row of the transposed copy of
// the finished columns, which the diagonal step and the panels write into
// the factor's own strict upper triangle (ld[k*n+i] = L[i][k]) and which
// is cleared at the end, so nothing is allocated and the two widths mix
// freely. The last n mod 4 columns go through choleskyColumns.
func choleskyLanes(ld, ad []float64, n int) error {
	tol := pivotTol[float64]()
	j0 := 0
	for _, t := range laneTiers {
		if t.w == 8 && !useAVX512 {
			continue
		}
		for ; j0+t.w <= n; j0 += t.w {
			t.tile(&ld[0], &ad[0], n, j0)
			for c := j0; c < j0+t.w; c++ {
				d := ld[c*n+c]
				for _, v := range ld[c*n+j0 : c*n+c] {
					d -= v * v
				}
				if d <= tol {
					return ErrSingular
				}
				piv := math.Sqrt(d)
				ld[c*n+c] = piv
				for i := c + 1; i < j0+t.w; i++ {
					s := ld[i*n+c]
					for k := j0; k < c; k++ {
						s -= ld[i*n+k] * ld[c*n+k]
					}
					ld[i*n+c] = s / piv
					ld[c*n+i] = ld[i*n+c]
				}
			}
			if j0+t.w < n {
				t.panel(&ld[0], &ad[0], n, j0)
			}
		}
	}
	if err := choleskyColumns(ld, ad, n, j0); err != nil {
		return err
	}
	for k := 0; k < j0; k++ {
		clear(ld[k*n+k+1 : (k+1)*n])
	}
	return nil
}

// laneTiers are choleskyLanes' column-block kernels, widest first.
var laneTiers = [...]struct {
	w           int
	tile, panel func(l, a *float64, n, j0 int)
}{
	{8, cholTileAVX512, cholPanelAVX512},
	{4, cholTileAVX2, cholPanelAVX2},
}

// asFloat64 returns s as a []float64 over the same memory when T is
// float64 (or a type defined over it, which has the same bits), so the
// float64 SIMD kernels can take it; wide is false at float32.
func asFloat64[T Float](s []T) (f []float64, wide bool) {
	if unsafe.Sizeof(T(0)) != 8 {
		return nil, false
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s))), len(s)), true
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
// reallocated otherwise) and returning it. Sums accumulate in float64 over
// ascending k and each solution entry is rounded to T once; the forward
// substitution is register-tiled, four rows per sweep. The backward
// substitution stays one entry at a time: x[i] reads L[k][i] down a column
// and its first term needs x[i+1], the entry just finished. The
// substitutions run in place over one buffer in an order that never reads
// an overwritten entry, so the result does not depend on dst's prior
// contents. dst must not alias b.
//
//iotml:hotpath
func SolveCholeskyInto[T Float](dst []T, l *Dense[T], b []T) []T {
	n := l.Rows
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	ld := l.Data
	// Forward substitution, dst holding y: four rows per sweep over the
	// finished y[k], k < i, one float64 accumulator each, then the rows
	// finish their within-tile terms in order.
	i := 0
	for ; i+4 <= n; i += 4 {
		y := dst[:i]
		r0 := ld[i*n:][:len(y)]
		r1 := ld[(i+1)*n:][:len(y)]
		r2 := ld[(i+2)*n:][:len(y)]
		r3 := ld[(i+3)*n:][:len(y)]
		s0 := float64(b[i])
		s1 := float64(b[i+1])
		s2 := float64(b[i+2])
		s3 := float64(b[i+3])
		for k, v := range y {
			yk := float64(v)
			s0 -= float64(r0[k]) * yk
			s1 -= float64(r1[k]) * yk
			s2 -= float64(r2[k]) * yk
			s3 -= float64(r3[k]) * yk
		}
		t := ld[i*n+i:]
		y0 := float64(T(s0 / float64(t[0])))
		s1 -= float64(t[n]) * y0
		y1 := float64(T(s1 / float64(t[n+1])))
		s2 -= float64(t[2*n]) * y0
		s2 -= float64(t[2*n+1]) * y1
		y2 := float64(T(s2 / float64(t[2*n+2])))
		s3 -= float64(t[3*n]) * y0
		s3 -= float64(t[3*n+1]) * y1
		s3 -= float64(t[3*n+2]) * y2
		dst[i], dst[i+1], dst[i+2] = T(y0), T(y1), T(y2)
		dst[i+3] = T(s3 / float64(t[3*n+3]))
	}
	for ; i < n; i++ {
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
