// Low-rank factor primitives for the approximate Gram engine: Nyström
// landmark factors (C · W^{-1/2} from m landmark columns), seeded
// random-Fourier-feature maps for the RBF family, and the transposed
// products (XᵀX, Xᵀv) the primal ridge / alignment paths need to train on
// an n×r factor instead of an n×n Gram matrix.
//
// Determinism contract: every routine is a pure function of its inputs —
// no internal randomness (RFF frequencies are drawn by the caller from a
// seeded stream) — and accumulates inner products left-to-right like the
// rest of the package, so factors are bit-identical across runs and worker
// counts for identical inputs.
package linalg

import "math"

// NystromFactorInto computes the Nyström factor F = C · L⁻ᵀ where
// W + jitter·I = L·Lᵀ, so that F·Fᵀ = C·(W + jitter·I)⁻¹·Cᵀ — the rank-m
// Nyström approximation of a kernel matrix from its n×m landmark
// cross-Gram C and m×m landmark Gram W. The factor is written into dst
// (reallocated if nil or mis-sized via Reshape) and returned.
//
// Row i of F solves L·fᵢ = cᵢ by forward substitution, so at full rank
// (landmarks = all points, C = W = K) the reconstruction error of F·Fᵀ is
// bounded by the jitter alone. W is read-only; ErrSingular is returned when
// W + jitter·I is not positive definite to working precision (duplicate
// landmark rows — callers escalate the jitter and retry).
func NystromFactorInto(dst, c, w *Matrix, jitter float64) (*Matrix, error) {
	m := w.Rows
	reg := NewMatrix(m, m)
	copy(reg.Data, w.Data)
	reg.AddScaledDiag(jitter)
	l := NewMatrix(m, m)
	if err := CholeskyInto(l, reg); err != nil {
		return dst, err
	}
	n := c.Rows
	dst = Reshape(dst, n, m)
	for i := 0; i < n; i++ {
		ci := c.Data[i*m : (i+1)*m]
		fi := dst.Data[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			s := ci[j]
			rowJ := l.Data[j*m : (j+1)*m]
			for k, v := range fi[:j] {
				s -= rowJ[k] * v
			}
			fi[j] = s / rowJ[j]
		}
	}
	return dst, nil
}

// RFFMapInto computes the random-Fourier-feature map of the rows of x under
// the frequency matrix freq (dHalf×d, rows are the sampled frequencies w):
// row i of dst is scale·[cos(⟨w₁,xᵢ⟩), …, cos(⟨w_dHalf,xᵢ⟩),
// sin(⟨w₁,xᵢ⟩), …, sin(⟨w_dHalf,xᵢ⟩)], an n×2·dHalf factor F with
// E[F·Fᵀ] = K for the shift-invariant kernel the frequencies were drawn
// from (w ~ N(0, 2γI) and scale = 1/√dHalf give RBF exp(−γ‖x−y‖²)). dst is
// reallocated if nil or mis-sized and returned.
func RFFMapInto(dst, x, freq *Matrix, scale float64) *Matrix {
	n, d := x.Rows, x.Cols
	dHalf := freq.Rows
	dst = Reshape(dst, n, 2*dHalf)
	for i := 0; i < n; i++ {
		xi := x.Data[i*d : (i+1)*d]
		row := dst.Data[i*2*dHalf : (i+1)*2*dHalf]
		for j := 0; j < dHalf; j++ {
			wj := freq.Data[j*d : (j+1)*d]
			s := 0.0
			for k, v := range xi {
				s += v * wj[k]
			}
			row[j] = scale * math.Cos(s)
			row[dHalf+j] = scale * math.Sin(s)
		}
	}
	return dst
}

// SyrkTInto computes the transposed symmetric product XᵀX (dst[i][j] =
// ⟨col i, col j⟩, a c×c matrix from an n×c input), writing into dst
// (reallocated if nil or mis-sized) and returning it — the r×r normal
// matrix of the primal low-rank ridge path. Accumulation streams the rows
// of x in order, so the result is deterministic for a fixed input. On an
// AVX2 host each row's update runs in syrkTRowAVX2, four columns per
// instruction with the same multiply and add per entry, bit-identical to
// the Go loop.
func SyrkTInto(dst, x *Matrix) *Matrix {
	n, c := x.Rows, x.Cols
	dst = Reshape(dst, c, c)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for r := 0; r < n; r++ {
		row := x.Data[r*c : (r+1)*c]
		if useAVX2 && c > 0 {
			syrkTRowAVX2(&dst.Data[0], &row[0], c)
			continue
		}
		for i, vi := range row {
			if vi == 0 {
				continue
			}
			di := dst.Data[i*c : (i+1)*c]
			for j := i; j < c; j++ {
				di[j] += vi * row[j]
			}
		}
	}
	MirrorUpper(dst)
	return dst
}

// MulTVecInto computes Mᵀ·v (length m.Cols) into dst, reusing dst's
// capacity when it suffices, and returns it — the Fᵀy right-hand side of
// the primal ridge solve. Accumulation streams the rows of m in order.
func MulTVecInto(dst Vector, m *Matrix, v Vector) Vector {
	c := m.Cols
	if cap(dst) < c {
		dst = NewVector(c)
	}
	dst = dst[:c]
	for j := range dst {
		dst[j] = 0
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*c : (r+1)*c]
		vr := v[r]
		if vr == 0 {
			continue
		}
		for j, x := range row {
			dst[j] += vr * x
		}
	}
	return dst
}
