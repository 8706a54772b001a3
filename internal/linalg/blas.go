// Dense level-3 building blocks for the vectorized Gram engine: symmetric
// rank-k products, rectangular A·Bᵀ products, pairwise squared distances via
// the ‖x‖² + ‖y‖² − 2⟨x,y⟩ expansion, and contiguous column-block
// extraction. All routines write into caller-supplied matrices so hot paths
// (candidate scoring in a lattice search) reuse scratch instead of
// allocating per call.
//
// The kernels shared by both storage widths — Reshape, GatherInto,
// SyrkInto, RowSquaredNorms, PairwiseSquaredDistancesInto, FromRowsCols,
// and (in linalg.go) CholeskyInto, SolveCholeskyInto and MulVecInto — are
// written once, generic over Float: the float64 instantiation is the exact
// reference, the float32 instantiation the f32 backend's arithmetic.
//
// Determinism contract, at both widths: every sum accumulates in float64
// and each result is rounded to the storage type once, at its store.
// Inner products accumulate left-to-right in feature order — exactly the
// order a scalar per-pair kernel evaluation uses — so at float64 SyrkInto
// and GemmNTInto are bit-identical to pairwise dot products, and at float32
// each entry is the correctly rounded float64 result. The distance
// expansion in PairwiseSquaredDistancesInto reorders floating-point
// operations relative to a direct Σ(xᵢ−yᵢ)² loop and is therefore only
// accurate to rounding (callers that need the exact scalar result must use
// the pairwise path).
package linalg

import "fmt"

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

// Run is a maximal contiguous index run [Start, Start+Len) — the gather
// descriptor GatherInto consumes: one Run is one copy() instead of Len
// scalar loads.
type Run struct {
	Start, Len int
}

// RunsOf compresses an index list into contiguous ascending runs, preserving
// order: {4, 5, 6, 2, 9, 10} becomes [{4,3}, {2,1}, {9,2}]. Computed once
// per index set (e.g. per CV fold) and replayed on every gather.
func RunsOf(idx []int) []Run {
	if len(idx) == 0 {
		return nil
	}
	runs := make([]Run, 0, len(idx))
	cur := Run{Start: idx[0], Len: 1}
	for _, v := range idx[1:] {
		if v == cur.Start+cur.Len {
			cur.Len++
			continue
		}
		runs = append(runs, cur)
		cur = Run{Start: v, Len: 1}
	}
	return append(runs, cur)
}

// GatherInto extracts the submatrix src[rows[i]][cols...] into dst
// (reshaped via Reshape, so scratch is retained across gathers of
// alternating shapes) and returns it. The column selection is described by
// contiguous runs (see RunsOf), so each run of each row is a single copy()
// over the row-major backing array instead of per-element At/Set — the fold
// sub- and cross-Gram extraction of the CV fast path. Values are read and
// written verbatim: the gathered entries are bit-identical to a scalar
// gather of the same indices.
//
//iotml:hotpath
func GatherInto[T Float](dst, src *Dense[T], rows []int, cols []Run) *Dense[T] {
	nc := 0
	for _, r := range cols {
		nc += r.Len
	}
	dst = Reshape(dst, len(rows), nc)
	for i, r := range rows {
		srcRow := src.Data[r*src.Cols : (r+1)*src.Cols]
		dstRow := dst.Data[i*nc : (i+1)*nc]
		pos := 0
		for _, run := range cols {
			if run.Len == 1 {
				// Shuffled index sets compress mostly to singleton runs;
				// a direct store skips the memmove call overhead.
				dstRow[pos] = srcRow[run.Start]
				pos++
				continue
			}
			copy(dstRow[pos:pos+run.Len], srcRow[run.Start:run.Start+run.Len])
			pos += run.Len
		}
	}
	return dst
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

// PairwiseSquaredDistancesInto computes ‖xᵢ − xⱼ‖² for all row pairs via the
// expansion ‖xᵢ‖² + ‖xⱼ‖² − 2⟨xᵢ,xⱼ⟩, writing into dst (reallocated if nil
// or mis-sized) and returning it. The row norms are summed separately in
// float64 (RowSquaredNorms, the same order as SyrkInto's diagonal) and
// each distance is rounded to T once. Cancellation residue is clamped at
// zero and the diagonal is exactly zero; off-diagonal entries agree with
// the direct Σ(xᵢ−yᵢ)² loop to rounding only (see the package determinism
// contract).
func PairwiseSquaredDistancesInto[T Float](dst, x *Dense[T]) *Dense[T] {
	n, d := x.Rows, x.Cols
	dst = Reshape(dst, n, n)
	norms := RowSquaredNorms(nil, x)
	xd, out := x.Data, dst.Data
	for i := 0; i < n; i++ {
		ri := xd[i*d : (i+1)*d]
		out[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			rj := xd[j*d : (j+1)*d]
			dot := 0.0
			for k, v := range ri {
				dot += float64(v) * float64(rj[k])
			}
			v := norms[i] + norms[j] - 2*dot
			if v < 0 {
				v = 0
			}
			f := T(v)
			out[i*n+j] = f
			out[j*n+i] = f
		}
	}
	return dst
}

// CrossSquaredDistancesInto computes ‖aᵢ − bⱼ‖² for all row pairs of two
// matrices via the same expansion as PairwiseSquaredDistancesInto, writing
// into dst (reallocated if nil or mis-sized) and returning it.
func CrossSquaredDistancesInto(dst, a, b *Matrix) *Matrix {
	dst = GemmNTInto(dst, a, b)
	na := RowSquaredNorms(nil, a)
	nb := RowSquaredNorms(nil, b)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			v := na[i] + nb[j] - 2*dst.Data[i*dst.Cols+j]
			if v < 0 {
				v = 0
			}
			dst.Data[i*dst.Cols+j] = v
		}
	}
	return dst
}

// ExtractColumns returns the contiguous n×len(cols) submatrix of the given
// column indices (0-based), materializing a column block once so downstream
// dense kernels stream it row-major instead of gathering per pair.
func ExtractColumns(x *Matrix, cols []int) *Matrix {
	out := NewMatrix(x.Rows, len(cols))
	for i := 0; i < x.Rows; i++ {
		src := x.Data[i*x.Cols : (i+1)*x.Cols]
		dstRow := out.Data[i*len(cols) : (i+1)*len(cols)]
		for k, c := range cols {
			dstRow[k] = src[c]
		}
	}
	return out
}

// FromRowsCols builds the contiguous n×len(cols) matrix of the given
// column indices (0-based) of row-slice data — ExtractColumns for datasets
// stored as [][]float64 — rounding each entry to T once.
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
