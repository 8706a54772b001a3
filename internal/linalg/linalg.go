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
// float64 instantiation. A symmetric Gram block is Packed[T], its upper
// triangle alone. The kernels both numeric widths run — the blas.go
// set plus CholeskyInto, SolveCholeskyInto, SolveCholeskyPairInto and
// MulVecInto — are written
// once, generic over T, and the determinism contract in blas.go covers
// both widths.
//
// This package holds all of the module's assembly (simd_amd64.s) and its
// one CPU probe, cpuFeatures, which runs CPUID and XGETBV once and sets
// every dispatch flag. On amd64 hosts with AVX2 the float64 CholeskyInto,
// SyrkTInto, SyrkInto, PairwiseSquaredDistancesUpperInto,
// AccumulateScaled and AccumulateProduct run on AVX2 micro-kernels. Where
// the same pass also finds AVX512F (leaf 7 EBX bit 16) and XGETBV reports
// the opmask and ZMM state saved (XCR0 bits 5–7), CholeskyInto takes its
// column blocks eight at a time on AVX-512 kernels first and finishes the
// last n mod 8 columns on the AVX2 block and the Go loop, and the SyrkInto
// and distance rows run eight lanes per register. Every tier keeps
// every bit under one rule: vectorize across independent outputs, never
// along a reduction. Each lane replays one entry's scalar sequence — a
// float64 accumulator, ascending k, a multiply then a separate subtract or
// add (never a fused multiply-add), one store. The Cholesky lanes hold
// four or eight columns of one row and read the finished columns from
// Lᵀ. Every path keeps Lᵀ in the factor's own strict upper triangle, the
// factor's one storage convention, and the backward substitution of
// SolveCholeskyInto and SolveCholeskyPairInto reads its rows; the pair
// runs two systems' substitution chains interleaved. The Go loops are
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

// UpperRows returns the segments [i, n) of the rows of the square matrix
// m, in place — a symmetric matrix read through its upper triangle — in
// dst, reused when its capacity suffices.
func (m *Dense[T]) UpperRows(dst [][]T) [][]T {
	if cap(dst) < m.Rows {
		dst = make([][]T, m.Rows)
	}
	dst = dst[:m.Rows]
	for i := range dst {
		dst[i] = m.Data[i*m.Cols+i : (i+1)*m.Cols]
	}
	return dst
}

// Packed is a symmetric n×n matrix stored as its upper triangle: row i,
// entries (i, i..n−1), starts at offset i·n − i(i−1)/2, n(n+1)/2 entries
// in all.
type Packed[T Float] struct {
	N    int
	Data []T
}

// ReshapePacked is Reshape for Packed: p resized to order n, reusing its
// storage when the capacity suffices and drawing new storage from the
// recycler when it does not. Its contents are unspecified either way.
//
//iotml:hotpath
func ReshapePacked[T Float](p *Packed[T], n int) *Packed[T] {
	if p == nil {
		p = new(Packed[T])
	}
	if size := n * (n + 1) / 2; cap(p.Data) < size {
		p.Data = draw[T](size)
	} else {
		p.Data = p.Data[:size]
	}
	p.N = n
	return p
}

// Row returns row i's upper segment, entries (i, i..n−1), in place.
func (p *Packed[T]) Row(i int) []T {
	off := i*p.N - i*(i-1)/2
	return p.Data[off : off+p.N-i]
}

// UpperRows returns Row(i) for every row i in dst, reused when its
// capacity suffices.
func (p *Packed[T]) UpperRows(dst [][]T) [][]T {
	if cap(dst) < p.N {
		dst = make([][]T, p.N)
	}
	dst = dst[:p.N]
	for i := range dst {
		dst[i] = p.Row(i)
	}
	return dst
}

// UnpackInto writes the full matrix p into dst (reshaped) and returns it:
// each row copied, last row first, then one MirrorUpper. Row i never
// moves to an earlier offset, so p may be stored in dst's own leading
// entries and unpacked in place.
func UnpackInto[T Float](dst *Dense[T], p *Packed[T]) *Dense[T] {
	dst = Reshape(dst, p.N, p.N)
	for i := p.N - 1; i >= 0; i-- {
		copy(dst.Data[i*p.N+i:], p.Row(i))
	}
	MirrorUpper(dst)
	return dst
}

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

// CholeskyInto factors A = L Lᵀ into the caller-owned matrix l (non-nil),
// which is resized via Reshape (so hot paths reuse one factor buffer across
// many solves of alternating sizes). The factor has one storage
// convention: L in the lower triangle and diagonal, and Lᵀ in the strict
// upper triangle (l[i][j] = L[j][i] for i < j), so the backward
// substitution of SolveCholeskyInto reads rows. Every entry is written,
// so the factor does not depend on what l held before. CholeskyInto reads
// only a's lower triangle and diagonal, and reads each entry before its
// own position in l is written, so l may be a itself: the factor then
// overwrites its input in place. It returns ErrSingular if a pivot falls
// below the tolerance of T's precision (see pivotTol); l's contents are
// unspecified after an error.
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
	Reshape(l, n, n)
	if ld, wide := asFloat64(l.Data); wide && useAVX2 && n >= 4 {
		ad, _ := asFloat64(a.Data[:n*n])
		return choleskyLanes(ld, ad, n)
	}
	return choleskyColumns(l.Data, a.Data, n, 0)
}

// choleskyColumns factors columns from..n-1 of the order-n matrix ad into
// ld, given the finished columns 0..from-1 (CholeskyInto passes from = 0),
// and writes each column's entries below the pivot twice: as L down the
// column and as Lᵀ along the pivot's row. ld may be ad: column j reads
// only ad's entries (i, j), i >= j, each before its own store.
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
		// upper is row j right of the pivot, where Lᵀ goes.
		upper := ld[j*n : (j+1)*n]
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
			u := upper[i : i+4 : i+4]
			u[0], u[1], u[2], u[3] = T(s0/piv), T(s1/piv), T(s2/piv), T(s3/piv)
			ld[i*n+j], ld[(i+1)*n+j], ld[(i+2)*n+j], ld[(i+3)*n+j] = u[0], u[1], u[2], u[3]
		}
		// The rows left over, one at a time.
		for ; i < n; i++ {
			s := float64(ad[i*n+j])
			for k, v := range ld[i*n:][:len(rowJ)] {
				s -= float64(v) * float64(rowJ[k])
			}
			upper[i] = T(s / piv)
			ld[i*n+j] = upper[i]
		}
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
//     division, and the block's own Lᵀ entries;
//   - the panel kernel does the same for every row below, several rows
//     per sweep over k, then finishes w rows at a time in column lanes:
//     each column's within-block terms in ascending order, then its one
//     division, in the column loop's order for every entry.
//
// The lane operand L[j0..j0+w-1][k] is a row of Lᵀ, which the panels
// write into the factor's own strict upper triangle (ld[k*n+i] = L[i][k])
// as the factor's storage convention has it, so nothing is allocated and
// the two widths mix freely. The last n mod 4 columns go through
// choleskyColumns. ld may be ad: the kernels read ad's lower triangle
// only, except for lanes they drop (the tile's upper entries, which the
// scalar finish overwrites, and a short panel's last window, whose rows
// above the panel are loaded and not stored).
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
				// Row slices keep the k loops free of loop-invariant
				// reloads: rc is row c's finished entries j0..c-1.
				rc := ld[c*n+j0 : c*n+c]
				d := ld[c*n+c]
				for _, v := range rc {
					d -= v * v
				}
				if d <= tol {
					return ErrSingular
				}
				piv := math.Sqrt(d)
				ld[c*n+c] = piv
				for i := c + 1; i < j0+t.w; i++ {
					ri := ld[i*n+j0 : i*n+c+1]
					s := ri[len(rc)]
					for k, v := range ri[:len(rc)] {
						s -= v * rc[k]
					}
					ri[len(rc)] = s / piv
					ld[c*n+i] = ri[len(rc)]
				}
			}
			if j0+t.w < n {
				t.panel(&ld[0], &ad[0], n, j0)
			}
		}
	}
	return choleskyColumns(ld, ad, n, j0)
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

// SolveCholeskyInto solves A x = b given A's factor l as CholeskyInto
// writes it, into dst (reused when its capacity suffices, reallocated
// otherwise), and returns the solution. It is SolveCholeskyPairInto's
// one-system case. dst must not alias b.
//
//iotml:hotpath
func SolveCholeskyInto[T Float](dst []T, l *Dense[T], b []T) []T {
	dst, _ = SolveCholeskyPairInto(dst, l, b, nil, nil, nil)
	return dst
}

// SolveCholeskyPairInto solves two factored systems, A₀ x₀ = b₀ and
// A₁ x₁ = b₁, given their factors l0 and l1 as CholeskyInto writes them,
// into dst0 and dst1 (each reused when its capacity suffices), and returns
// both solutions. l1 may be nil: then only the first system is solved and
// dst1 is returned as given. The orders may differ. Sums accumulate in
// float64 over ascending k and each solution entry is rounded to T once,
// so each system's solution is the scalar substitution loops', bit for
// bit, whatever it is paired with. The substitutions run in place over
// each dst in an order that never reads an overwritten entry, so the
// result does not depend on dst's prior contents. Neither dst may alias
// a b.
//
// The forward substitutions run one system after the other, register-
// tiled four rows per sweep. The backward substitutions run together:
// x[i]'s sum reads row i of Lᵀ, contiguous, and its first term needs
// x[i+1], the entry finished just before, so one system's entries form
// one latency chain, and pairing two systems runs two chains at once
// (backSubstitutePair).
//
//iotml:hotpath
func SolveCholeskyPairInto[T Float](dst0 []T, l0 *Dense[T], b0 []T, dst1 []T, l1 *Dense[T], b1 []T) ([]T, []T) {
	dst0 = forwardSubstituteInto(dst0, l0, b0)
	var ld1 []T
	n1 := 0
	if l1 != nil {
		dst1 = forwardSubstituteInto(dst1, l1, b1)
		ld1, n1 = l1.Data, l1.Rows
	}
	backSubstitutePair(dst0, l0.Data, l0.Rows, dst1, ld1, n1)
	return dst0, dst1
}

// forwardSubstituteInto solves L y = b into dst (reused when its capacity
// suffices) and returns y: four rows per sweep over the finished y[k],
// k < i, one float64 accumulator each, then the rows finish their
// within-tile terms in order.
//
//iotml:hotpath
func forwardSubstituteInto[T Float](dst []T, l *Dense[T], b []T) []T {
	n := l.Rows
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	ld := l.Data
	i := 0
	for ; i+4 <= n; i += 4 {
		s0, s1, s2, s3 := sweep4(dst[:i], ld[i*n:], ld[(i+1)*n:], ld[(i+2)*n:], ld[(i+3)*n:],
			float64(b[i]), float64(b[i+1]), float64(b[i+2]), float64(b[i+3]))
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
	return dst
}

// sweep4 subtracts Σ_k r_m[k]·y[k], over ascending k < len(y), from the
// accumulator s_m of each of four rows r0..r3 and returns the four. It is
// kept out of line: inlined into forwardSubstituteInto, the loop ran out
// of registers and kept its counter on the stack.
//
//iotml:hotpath
//go:noinline
func sweep4[T Float](y, r0, r1, r2, r3 []T, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	r0, r1, r2, r3 = r0[:len(y)], r1[:len(y)], r2[:len(y)], r3[:len(y)]
	for k, v := range y {
		yk := float64(v)
		s0 -= float64(r0[k]) * yk
		s1 -= float64(r1[k]) * yk
		s2 -= float64(r2[k]) * yk
		s3 -= float64(r3[k]) * yk
	}
	return s0, s1, s2, s3
}

// backSubstitutePair solves Lᵀ x = y in place for two systems: x0 and x1
// hold y on entry and x on return, and ld0, ld1 are factors of orders n0
// and n1 (n1 may be 0) in CholeskyInto's storage. Position i still holds
// y[i] when it is read, positions above i already hold x. The systems'
// rows are aligned from the end: step t finishes entry n0-1-t of one and
// n1-1-t of the other, both sums of t terms, their chains interleaved;
// the larger system's first |n0-n1| entries then finish alone.
//
//iotml:hotpath
func backSubstitutePair[T Float](x0, ld0 []T, n0 int, x1, ld1 []T, n1 int) {
	if n0 < n1 {
		x0, ld0, n0, x1, ld1, n1 = x1, ld1, n1, x0, ld0, n0
	}
	for t := 0; t < n1; t++ {
		i0, i1 := n0-1-t, n1-1-t
		u0 := ld0[i0*n0+i0+1 : (i0+1)*n0]
		u1 := ld1[i1*n1+i1+1:][:len(u0)]
		v0 := x0[i0+1:][:len(u0)]
		v1 := x1[i1+1:][:len(u0)]
		s0, s1 := float64(x0[i0]), float64(x1[i1])
		for k, u := range u0 {
			s0 -= float64(u) * float64(v0[k])
			s1 -= float64(u1[k]) * float64(v1[k])
		}
		x0[i0] = T(s0 / float64(ld0[i0*n0+i0]))
		x1[i1] = T(s1 / float64(ld1[i1*n1+i1]))
	}
	for i := n0 - 1 - n1; i >= 0; i-- {
		u := ld0[i*n0+i+1 : (i+1)*n0]
		v := x0[i+1:][:len(u)]
		s := float64(x0[i])
		for k, a := range u {
			s -= float64(a) * float64(v[k])
		}
		x0[i] = T(s / float64(ld0[i*n0+i]))
	}
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
