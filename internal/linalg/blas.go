// Dense level-3 building blocks for the vectorized Gram engine: symmetric
// rank-k products, rectangular A·Bᵀ products, pairwise squared distances via
// the ‖x‖² + ‖y‖² − 2⟨x,y⟩ expansion, and contiguous column-block
// extraction. All routines write into caller-supplied matrices so hot paths
// (candidate scoring in a lattice search) reuse scratch instead of
// allocating per call.
//
// The kernels shared by both storage widths — Reshape, GatherInto,
// GatherLowerInto, AccumulateScaled, AccumulateProduct, MirrorUpper,
// SyrkInto, RowSquaredNorms, PairwiseSquaredDistancesUpperInto, FromRowsCols,
// and (in linalg.go) CholeskyInto, SolveCholeskyInto and MulVecInto — are
// written once, generic over Float: the float64 instantiation is the exact
// reference, the float32 instantiation the f32 backend's arithmetic.
//
// Determinism contract, at both widths: every sum accumulates in float64
// and each result is rounded to the storage type once, at its store.
// A register-tiled or lane-parallel kernel (CholeskyInto on either SIMD
// tier, SolveCholeskyInto's forward substitution, MulVecInto,
// PairwiseSquaredDistancesUpperInto, SyrkTInto's AVX2 row update, the AVX2
// accumulate kernels) interleaves outputs but never reorders the terms
// within an output. Inner products accumulate
// left-to-right in feature order — exactly the order a scalar per-pair
// kernel evaluation uses — so at float64 SyrkInto and GemmNTInto are
// bit-identical to pairwise dot products, and at float32 each entry is the
// correctly rounded float64 result. The distance
// expansion in PairwiseSquaredDistancesUpperInto reorders floating-point
// operations relative to a direct Σ(xᵢ−yᵢ)² loop and is therefore only
// accurate to rounding (callers that need the exact scalar result must use
// the pairwise path).
package linalg

import (
	"fmt"
	"math"
)

// Reshape returns m resized to r×c, reusing m's backing storage whenever its
// capacity suffices — so hot paths whose working shapes alternate (e.g.
// CV folds of size n/k and n/k+1) settle on one allocation instead of
// reallocating every call. A fresh matrix is returned when m is nil or its
// capacity is short. The contents after a reshape are unspecified; callers
// must overwrite every entry they read.
//
//iotml:hotpath
func Reshape[T Float](m *Dense[T], r, c int) *Dense[T] {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	if m == nil {
		return NewDense[T](r, c)
	}
	if m.Rows == r && m.Cols == c {
		return m
	}
	if cap(m.Data) < r*c {
		return NewDense[T](r, c)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:r*c]
	return m
}

// GatherInto extracts the submatrix src[rows[i]][cols[j]] into dst
// (reshaped via Reshape, so scratch is retained across gathers of
// alternating shapes) and returns it, copying values verbatim — the fold
// sub- and cross-Gram extraction of the CV fast path.
//
//iotml:hotpath
func GatherInto[T Float](dst, src *Dense[T], rows, cols []int) *Dense[T] {
	nc := len(cols)
	dst = Reshape(dst, len(rows), nc)
	for i, r := range rows {
		srcRow := src.Data[r*src.Cols : (r+1)*src.Cols]
		dstRow := dst.Data[i*nc : (i+1)*nc]
		for j, c := range cols {
			dstRow[j] = srcRow[c]
		}
	}
	return dst
}

// GatherLowerInto is GatherInto(dst, src, idx, idx) restricted to the
// lower triangle, diagonal included; dst's strict upper triangle keeps
// whatever it held. It moves a fold's ridge system into CholeskyInto,
// which reads only that triangle.
//
//iotml:hotpath
func GatherLowerInto[T Float](dst, src *Dense[T], idx []int) *Dense[T] {
	m := len(idx)
	dst = Reshape(dst, m, m)
	for i, r := range idx {
		srcRow := src.Data[r*src.Cols : (r+1)*src.Cols]
		dstRow := dst.Data[i*m : i*m+i+1]
		for j, c := range idx[:i+1] {
			dstRow[j] = srcRow[c]
		}
	}
	return dst
}

// AccumulateScaled sets acc[j] += w·g[j] for j < len(acc) in float64, a
// multiply then a separate add — the sum combiner's step of candidate-Gram
// assembly. At float64 on an AVX2 host it runs on accScaledAVX2, four
// lanes with the same two roundings each; the Go loop is the reference
// and the fallback.
//
//iotml:hotpath
func AccumulateScaled[T Float](acc []float64, w float64, g []T) {
	g = g[:len(acc)]
	if g64, wide := asFloat64(g); wide && useAVX2 && len(acc) > 0 {
		accScaledAVX2(&acc[0], &g64[0], w, len(acc))
		return
	}
	for j, v := range g {
		acc[j] += w * float64(v)
	}
}

// AccumulateProduct sets acc[j] *= g[j] for j < len(acc) in float64 — the
// product combiner's step, on accProductAVX2 where AccumulateScaled runs
// on lanes.
//
//iotml:hotpath
func AccumulateProduct[T Float](acc []float64, g []T) {
	g = g[:len(acc)]
	if g64, wide := asFloat64(g); wide && useAVX2 && len(acc) > 0 {
		accProductAVX2(&acc[0], &g64[0], len(acc))
		return
	}
	for j, v := range g {
		acc[j] *= float64(v)
	}
}

// ExpScaled overwrites each x[i] with T(math.Exp(m·float64(x[i]))), bit
// for bit — the RBF map of a Gram row segment, with m = −γ. At float64,
// while useExp, groups of four go through expLanesAVX2, a packed copy of
// math.Exp's FMA branch whose lanes equal math.Exp on every host it is
// dispatched on; a group with an argument outside [-708, 0], the tail,
// float32 entries, and every entry on other hosts and builds take
// math.Exp itself.
//
//iotml:hotpath
func ExpScaled[T Float](x []T, m float64) {
	i := 0
	if x64, wide := asFloat64(x); wide && useExp {
		for len(x64)-i >= 4 {
			i += expLanesAVX2(&x64[i], len(x64)-i, m)
			if len(x64)-i < 4 {
				break
			}
			for end := i + 4; i < end; i++ {
				x64[i] = math.Exp(m * x64[i])
			}
		}
	}
	for ; i < len(x); i++ {
		x[i] = T(math.Exp(m * float64(x[i])))
	}
}

// MirrorUpper copies the strict upper triangle of the square matrix m onto
// its strict lower triangle (m[j][i] = m[i][j] for i < j), verbatim. A
// plain row sweep: 32×32 tiles measured no faster at n = 90–1000 on a
// 2-vCPU Xeon.
//
//iotml:hotpath
func MirrorUpper[T Float](m *Dense[T]) {
	n, d := m.Rows, m.Data
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d[j*n+i] = d[i*n+j]
		}
	}
}

// SyrkInto computes the symmetric rank-k product X·Xᵀ (dst[i][j] =
// ⟨row i, row j⟩), writing into dst (reallocated if nil or mis-sized) and
// returning it. Only the upper triangle is computed; the lower is mirrored,
// matching the symmetric fill of a pairwise Gram loop.
func SyrkInto[T Float](dst, x *Dense[T]) *Dense[T] {
	n, d := x.Rows, x.Cols
	dst = Reshape(dst, n, n)
	xd, out := x.Data, dst.Data
	for i := 0; i < n; i++ {
		ri := xd[i*d : (i+1)*d]
		for j := i; j < n; j++ {
			rj := xd[j*d : (j+1)*d]
			s := 0.0
			for k, v := range ri {
				s += float64(v) * float64(rj[k])
			}
			f := T(s)
			out[i*n+j] = f
			out[j*n+i] = f
		}
	}
	return dst
}

// GemmNTInto computes the rectangular product A·Bᵀ (dst[i][j] =
// ⟨A row i, B row j⟩), writing into dst (reallocated if nil or mis-sized)
// and returning it. It panics if the inner dimensions differ.
func GemmNTInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: GemmNT inner dimension mismatch %d vs %d", a.Cols, b.Cols))
	}
	d := a.Cols
	dst = Reshape(dst, a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		ri := a.Data[i*d : (i+1)*d]
		for j := 0; j < b.Rows; j++ {
			rj := b.Data[j*d : (j+1)*d]
			s := 0.0
			for k, v := range ri {
				s += v * rj[k]
			}
			dst.Data[i*dst.Cols+j] = s
		}
	}
	return dst
}

// RowSquaredNorms writes ‖row i‖², accumulated in float64, into out
// (reallocated if mis-sized) and returns it.
func RowSquaredNorms[T Float](out []float64, x *Dense[T]) []float64 {
	if len(out) != x.Rows {
		out = make([]float64, x.Rows)
	}
	d := x.Cols
	for i := 0; i < x.Rows; i++ {
		s := 0.0
		for _, v := range x.Data[i*d : (i+1)*d] {
			s += float64(v) * float64(v)
		}
		out[i] = s
	}
	return out
}

// PairwiseSquaredDistancesUpperInto computes ‖xᵢ − xⱼ‖² for every row pair
// i ≤ j via the expansion ‖xᵢ‖² + ‖xⱼ‖² − 2⟨xᵢ,xⱼ⟩, writing the upper
// triangle and the diagonal of dst (reallocated if nil or mis-sized) and
// returning it. The strict lower triangle is not written — it keeps
// whatever dst held, zeros for a fresh matrix — so the caller must mirror
// it after its own entrywise map, as rbfGram does. The row
// norms are summed separately in float64 (RowSquaredNorms, the same order
// as SyrkInto's diagonal) and each distance is rounded to T once.
// Cancellation residue is clamped at zero and the diagonal is exactly
// zero; off-diagonal entries agree with the direct Σ(xᵢ−yᵢ)² loop to
// rounding only (see the package determinism contract). Each row's
// columns are register-tiled, four per sweep, with one float64 dot
// accumulator each over ascending features.
func PairwiseSquaredDistancesUpperInto[T Float](dst, x *Dense[T]) *Dense[T] {
	n, d := x.Rows, x.Cols
	dst = Reshape(dst, n, n)
	norms := RowSquaredNorms(nil, x)
	xd := x.Data
	for i := 0; i < n; i++ {
		ri := xd[i*d : (i+1)*d]
		ni := norms[i]
		row := dst.Data[i*n : (i+1)*n]
		row[i] = 0
		j := i + 1
		for ; j+4 <= n; j += 4 {
			r0 := xd[j*d:][:len(ri)]
			r1 := xd[(j+1)*d:][:len(ri)]
			r2 := xd[(j+2)*d:][:len(ri)]
			r3 := xd[(j+3)*d:][:len(ri)]
			var s0, s1, s2, s3 float64
			for k, v := range ri {
				vk := float64(v)
				s0 += vk * float64(r0[k])
				s1 += vk * float64(r1[k])
				s2 += vk * float64(r2[k])
				s3 += vk * float64(r3[k])
			}
			nj := norms[j : j+4 : j+4]
			row[j] = squaredDistance[T](ni, nj[0], s0)
			row[j+1] = squaredDistance[T](ni, nj[1], s1)
			row[j+2] = squaredDistance[T](ni, nj[2], s2)
			row[j+3] = squaredDistance[T](ni, nj[3], s3)
		}
		for ; j < n; j++ {
			dot := 0.0
			for k, v := range xd[j*d:][:len(ri)] {
				dot += float64(ri[k]) * float64(v)
			}
			row[j] = squaredDistance[T](ni, norms[j], dot)
		}
	}
	return dst
}

// squaredDistance is the expansion ‖xᵢ‖² + ‖xⱼ‖² − 2⟨xᵢ,xⱼ⟩, clamped at
// zero and rounded to T.
func squaredDistance[T Float](ni, nj, dot float64) T {
	v := ni + nj - 2*dot
	if v < 0 {
		v = 0
	}
	return T(v)
}

// CrossSquaredDistancesInto computes ‖aᵢ − bⱼ‖² for all row pairs of two
// matrices via the same expansion as PairwiseSquaredDistancesUpperInto, writing
// into dst (reallocated if nil or mis-sized) and returning it. na and nb
// are the row norms of a and b as RowSquaredNorms computes them, so a
// caller with fixed rows norms them once instead of per call.
//
//iotml:hotpath
func CrossSquaredDistancesInto(dst, a, b *Matrix, na, nb []float64) *Matrix {
	dst = GemmNTInto(dst, a, b)
	for i := 0; i < a.Rows; i++ {
		row := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j, dot := range row {
			row[j] = squaredDistance[float64](na[i], nb[j], dot)
		}
	}
	return dst
}

// ExtractColumnsInto writes the contiguous n×len(cols) submatrix of the
// given column indices (0-based) of x into dst (reshaped via Reshape, so
// scratch is retained across calls) and returns it, materializing a
// column block once so downstream dense kernels stream it row-major
// instead of gathering per pair.
//
//iotml:hotpath
func ExtractColumnsInto(dst, x *Matrix, cols []int) *Matrix {
	dst = Reshape(dst, x.Rows, len(cols))
	for i := 0; i < x.Rows; i++ {
		src := x.Data[i*x.Cols : (i+1)*x.Cols]
		dstRow := dst.Data[i*len(cols) : (i+1)*len(cols)]
		for k, c := range cols {
			dstRow[k] = src[c]
		}
	}
	return dst
}

// FromRowsCols builds the contiguous n×len(cols) matrix of the given
// column indices (0-based) of row-slice data — ExtractColumnsInto for
// datasets stored as [][]float64 — rounding each entry to T once.
func FromRowsCols[T Float](rows [][]float64, cols []int) *Dense[T] {
	out := NewDense[T](len(rows), len(cols))
	for i, r := range rows {
		dstRow := out.Data[i*len(cols) : (i+1)*len(cols)]
		for k, c := range cols {
			dstRow[k] = T(r[c])
		}
	}
	return out
}

// Convert writes src into dst (reshaped) at dst's element width and
// returns it: exact when widening, one rounding per entry when narrowing.
func Convert[D, S Float](dst *Dense[D], src *Dense[S]) *Dense[D] {
	dst = Reshape(dst, src.Rows, src.Cols)
	for i, v := range src.Data {
		dst.Data[i] = D(v)
	}
	return dst
}
