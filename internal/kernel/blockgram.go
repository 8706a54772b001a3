// Block-level Gram evaluation: the vectorized fast path of the Gram engine.
// Instead of one interface dispatch plus per-pair slice gathering for every
// instance pair — O(n²) Eval calls per candidate configuration — kernels
// that can evaluate a whole Gram block as dense matrix operations implement
// BlockGramKernel, and Gram/CrossGram route through it.
//
// Determinism contract (the repository's reproduction guarantee):
//
//   - Linear and Polynomial are bit-identical to the pairwise path: their
//     dense products accumulate in the same left-to-right feature order as
//     Eval (linalg.SyrkInto / GemmNTInto).
//   - RBF uses the ‖x‖² + ‖y‖² − 2⟨x,y⟩ distance expansion, which reorders
//     floating-point operations: entries agree with the pairwise path to
//     1e-9 elementwise (diagonals are exact). GramPairwise and
//     CrossGramPairwise stay the scalar reference, and every Gram route
//     falls back to them for a kernel that does not implement
//     BlockGramKernel — which is how the equivalence tests reach the
//     pairwise arithmetic.
//   - Wrappers (Subspace, Normalized, Sum, Product) inherit the guarantee
//     of their operands: combination order matches Eval exactly.
package kernel

import (
	"math"
	"sync"

	"repro/internal/linalg"
)

// scratchPool recycles the member-Gram scratch matrices of the Sum and
// Product combiners, so the cache-less scoring path does not allocate one
// n×n buffer per candidate. Sizes are homogeneous within a search (always
// n×n or n_test×n_train), so a mis-sized pooled matrix is simply dropped.
var scratchPool sync.Pool

func getScratch(rows, cols int) *linalg.Matrix {
	if m, ok := scratchPool.Get().(*linalg.Matrix); ok && m.Rows == rows && m.Cols == cols {
		return m
	}
	return linalg.NewMatrix(rows, cols)
}

func putScratch(m *linalg.Matrix) { scratchPool.Put(m) }

// BlockGramKernel is the optional fast-path interface: kernels that can
// fill a whole Gram block with dense matrix operations implement it.
// Instances are the rows of x (and a, b); dst must be pre-shaped by the
// caller (n×n for GramInto over n instances, len(a)×len(b) for
// CrossGramInto). Both methods report false — leaving dst unspecified —
// when this kernel (or a kernel it wraps) cannot vectorize, in which case
// the caller falls back to the pairwise Eval path.
type BlockGramKernel interface {
	GramInto(dst, x *linalg.Matrix) bool
	CrossGramInto(dst, a, b *linalg.Matrix) bool
}

// GramInto implements BlockGramKernel: dst = X·Xᵀ, bit-identical to the
// pairwise path.
func (Linear) GramInto(dst, x *linalg.Matrix) bool {
	linalg.SyrkInto(dst, x)
	return true
}

// CrossGramInto implements BlockGramKernel: dst = A·Bᵀ.
func (Linear) CrossGramInto(dst, a, b *linalg.Matrix) bool {
	linalg.GemmNTInto(dst, a, b)
	return true
}

// GramInto implements BlockGramKernel: the polynomial map applied to X·Xᵀ,
// bit-identical to the pairwise path.
func (p Polynomial) GramInto(dst, x *linalg.Matrix) bool {
	linalg.SyrkInto(dst, x)
	n := x.Rows
	deg := float64(p.Degree)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := math.Pow(p.Gamma*dst.Data[i*n+j]+p.Coef0, deg)
			dst.Data[i*n+j] = v
			dst.Data[j*n+i] = v
		}
	}
	return true
}

// CrossGramInto implements BlockGramKernel.
func (p Polynomial) CrossGramInto(dst, a, b *linalg.Matrix) bool {
	linalg.GemmNTInto(dst, a, b)
	deg := float64(p.Degree)
	for i := range dst.Data {
		dst.Data[i] = math.Pow(p.Gamma*dst.Data[i]+p.Coef0, deg)
	}
	return true
}

// GramInto implements BlockGramKernel: exp(−γ·dist²) over the pairwise
// squared-distance expansion. Within 1e-9 of the pairwise path (diagonals
// exactly 1).
func (r RBF) GramInto(dst, x *linalg.Matrix) bool {
	linalg.PairwiseSquaredDistancesInto(dst, x)
	n := x.Rows
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = 1
		for j := i + 1; j < n; j++ {
			v := math.Exp(-r.Gamma * dst.Data[i*n+j])
			dst.Data[i*n+j] = v
			dst.Data[j*n+i] = v
		}
	}
	return true
}

// CrossGramInto implements BlockGramKernel.
func (r RBF) CrossGramInto(dst, a, b *linalg.Matrix) bool {
	linalg.CrossSquaredDistancesInto(dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = math.Exp(-r.Gamma * dst.Data[i])
	}
	return true
}

// GramInto implements BlockGramKernel: the base block restricted to the
// subspace columns, materialized contiguously once per call (caches such as
// BlockGramCache keep the extracted block across calls instead).
func (s Subspace) GramInto(dst, x *linalg.Matrix) bool {
	bg, ok := s.Base.(BlockGramKernel)
	if !ok {
		return false
	}
	return bg.GramInto(dst, linalg.ExtractColumns(x, s.Features))
}

// CrossGramInto implements BlockGramKernel.
func (s Subspace) CrossGramInto(dst, a, b *linalg.Matrix) bool {
	bg, ok := s.Base.(BlockGramKernel)
	if !ok {
		return false
	}
	return bg.CrossGramInto(dst, linalg.ExtractColumns(a, s.Features), linalg.ExtractColumns(b, s.Features))
}

// GramInto implements BlockGramKernel: cosine normalization of the base
// block, K'ᵢⱼ = Kᵢⱼ / √(Kᵢᵢ·Kⱼⱼ), with the same degenerate-diagonal rule as
// Eval (self-similarity ≤ 0 yields 0).
func (nk Normalized) GramInto(dst, x *linalg.Matrix) bool {
	bg, ok := nk.Base.(BlockGramKernel)
	if !ok || !bg.GramInto(dst, x) {
		return false
	}
	n := x.Rows
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = dst.Data[i*n+i]
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 0.0
			if diag[i] > 0 && diag[j] > 0 {
				v = dst.Data[i*n+j] / math.Sqrt(diag[i]*diag[j])
			}
			dst.Data[i*n+j] = v
			dst.Data[j*n+i] = v
		}
	}
	return true
}

// CrossGramInto implements BlockGramKernel. Self-similarities come from the
// base kernel's scalar Eval on each row — the same operation order as the
// pairwise path, so normalization preserves the base kernel's guarantee.
func (nk Normalized) CrossGramInto(dst, a, b *linalg.Matrix) bool {
	bg, ok := nk.Base.(BlockGramKernel)
	if !ok || !bg.CrossGramInto(dst, a, b) {
		return false
	}
	selfA := make([]float64, a.Rows)
	for i := range selfA {
		r := []float64(a.Row(i))
		selfA[i] = nk.Base.Eval(r, r)
	}
	selfB := make([]float64, b.Rows)
	for j := range selfB {
		r := []float64(b.Row(j))
		selfB[j] = nk.Base.Eval(r, r)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			v := 0.0
			if selfA[i] > 0 && selfB[j] > 0 {
				v = dst.Data[i*dst.Cols+j] / math.Sqrt(selfA[i]*selfB[j])
			}
			dst.Data[i*dst.Cols+j] = v
		}
	}
	return true
}

// blockGramAll reports whether every kernel supports the fast path, so
// combiners can refuse before writing into dst.
func blockGramAll(kernels []Kernel) bool {
	for _, k := range kernels {
		if _, ok := k.(BlockGramKernel); !ok {
			return false
		}
	}
	return true
}

// GramInto implements BlockGramKernel: the weighted sum of member Grams,
// accumulated in member order exactly as Eval does, so the combination
// inherits the members' determinism guarantee.
func (c Sum) GramInto(dst, x *linalg.Matrix) bool {
	if !blockGramAll(c.Kernels) {
		return false
	}
	scratch := getScratch(dst.Rows, dst.Cols)
	defer putScratch(scratch)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i, k := range c.Kernels {
		if !k.(BlockGramKernel).GramInto(scratch, x) {
			return false
		}
		w := 1.0
		if c.Weights != nil {
			w = c.Weights[i]
		}
		for j := range dst.Data {
			dst.Data[j] += w * scratch.Data[j]
		}
	}
	return true
}

// CrossGramInto implements BlockGramKernel.
func (c Sum) CrossGramInto(dst, a, b *linalg.Matrix) bool {
	if !blockGramAll(c.Kernels) {
		return false
	}
	scratch := getScratch(dst.Rows, dst.Cols)
	defer putScratch(scratch)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i, k := range c.Kernels {
		if !k.(BlockGramKernel).CrossGramInto(scratch, a, b) {
			return false
		}
		w := 1.0
		if c.Weights != nil {
			w = c.Weights[i]
		}
		for j := range dst.Data {
			dst.Data[j] += w * scratch.Data[j]
		}
	}
	return true
}

// GramInto implements BlockGramKernel: the elementwise product of member
// Grams, multiplied in member order exactly as Eval does.
func (c Product) GramInto(dst, x *linalg.Matrix) bool {
	if !blockGramAll(c.Kernels) {
		return false
	}
	scratch := getScratch(dst.Rows, dst.Cols)
	defer putScratch(scratch)
	for i := range dst.Data {
		dst.Data[i] = 1
	}
	for _, k := range c.Kernels {
		if !k.(BlockGramKernel).GramInto(scratch, x) {
			return false
		}
		for j := range dst.Data {
			dst.Data[j] *= scratch.Data[j]
		}
	}
	return true
}

// CrossGramInto implements BlockGramKernel.
func (c Product) CrossGramInto(dst, a, b *linalg.Matrix) bool {
	if !blockGramAll(c.Kernels) {
		return false
	}
	scratch := getScratch(dst.Rows, dst.Cols)
	defer putScratch(scratch)
	for i := range dst.Data {
		dst.Data[i] = 1
	}
	for _, k := range c.Kernels {
		if !k.(BlockGramKernel).CrossGramInto(scratch, a, b) {
			return false
		}
		for j := range dst.Data {
			dst.Data[j] *= scratch.Data[j]
		}
	}
	return true
}

// GramIntoMatrix fills dst with the Gram matrix of k over the rows of xm
// through the vectorized path, reporting false (dst unspecified) when k
// cannot vectorize. dst is reallocated if nil or mis-sized; the possibly
// fresh matrix is returned either way so callers can keep it as scratch.
func GramIntoMatrix(dst *linalg.Matrix, k Kernel, xm *linalg.Matrix) (*linalg.Matrix, bool) {
	bg, ok := k.(BlockGramKernel)
	if !ok {
		return dst, false
	}
	if dst == nil || dst.Rows != xm.Rows || dst.Cols != xm.Rows {
		dst = linalg.NewMatrix(xm.Rows, xm.Rows)
	}
	return dst, bg.GramInto(dst, xm)
}

// CrossGramIntoMatrix fills dst with the rectangular kernel matrix
// K[i][j] = k(A[i], B[j]) over the rows of a and b through the vectorized
// path, reporting false (dst unspecified) when k cannot vectorize. dst is
// reallocated if nil or mis-sized; the possibly fresh matrix is returned
// either way so callers can keep it as scratch — the cross-Gram analogue of
// GramIntoMatrix, used by the batched inference path (internal/model's
// Predictor).
func CrossGramIntoMatrix(dst *linalg.Matrix, k Kernel, a, b *linalg.Matrix) (*linalg.Matrix, bool) {
	bg, ok := k.(BlockGramKernel)
	if !ok {
		return dst, false
	}
	if dst == nil || dst.Rows != a.Rows || dst.Cols != b.Rows {
		dst = linalg.NewMatrix(a.Rows, b.Rows)
	}
	return dst, bg.CrossGramInto(dst, a, b)
}
