// Block-level Gram evaluation: the vectorized fast path of the Gram engine.
// Instead of one interface dispatch plus per-pair slice gathering for every
// instance pair, the base kernels (Linear, Polynomial, RBF, Normalized) fill
// a whole Gram block as dense matrix operations (blockGramInto), and every
// kernel tree binds a cross-Gram once and fills it block by block
// (BlockGramKernel.BindCross). A partition's full Gram is assembled in one
// place, DenseGramCache, which runs these formulas per feature block.
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
//     falls back to them for a kernel without a block formula — which is
//     how the equivalence tests reach the pairwise arithmetic.
//   - Normalized inherits the guarantee of its base. A partition's Gram
//     combines its block Grams in partition-block order with Eval's
//     per-entry operations (weighted sum, or product), so it inherits the
//     blocks' guarantee (DenseGramCache.GramForPartition).
//   - Cross-Gram blocks are bind-then-fill: BindCross does the work that
//     depends on the right-hand rows b alone, once (Subspace extracts b's
//     column block, RBF norms b's rows, Normalized takes b's
//     self-similarities), and the bound form fills the block for any
//     left-hand rows. Binding moves work, not arithmetic: each entry takes
//     the same operations in the same order as computing the block from
//     scratch — the GemmNT dot order, na+nb−2·dot clamped at 0, the
//     exp(−γ·v) pass, member accumulation in order — so a bound fill is
//     bit-identical to it however many times, and at whatever batch sizes,
//     one bound value is reused (TestBoundCrossGramMatchesScalarReference).
package kernel

import (
	"math"

	"repro/internal/linalg"
)

// BlockGramKernel is the optional cross-Gram fast-path interface: kernels
// that can fill a whole cross-Gram block with dense matrix operations
// implement it. BindCross fixes the right-hand rows b (instances are
// matrix rows) once and returns the bound form, which fills
// len(a)×len(b) blocks for any a. It reports false when this kernel (or a
// kernel it wraps) cannot vectorize, in which case the caller falls back
// to the pairwise Eval path.
type BlockGramKernel interface {
	BindCross(b *linalg.Matrix) (BoundCross, bool)
}

// BoundCross is a kernel bound to fixed right-hand rows b by
// BlockGramKernel.BindCross. It holds what depends on b alone and is
// read-only once bound: goroutines may share one BoundCross as long as
// each fills through its own CrossScratch. b must not change while bound.
type BoundCross interface {
	// Fill writes K(aᵢ, bⱼ) into dst, pre-shaped a.Rows×b.Rows, drawing
	// its working memory from sc.
	Fill(dst, a *linalg.Matrix, sc *CrossScratch)
}

// BindCross binds k to the right-hand rows b through its block fast path.
// It returns nil and false when k cannot vectorize.
func BindCross(k Kernel, b *linalg.Matrix) (BoundCross, bool) {
	if bg, ok := k.(BlockGramKernel); ok {
		if bound, ok := bg.BindCross(b); ok {
			return bound, true
		}
	}
	return nil, false
}

// CrossScratch is the working memory of BoundCross fills: a stack of
// matrices that each fill takes in a fixed order and hands back before it
// returns, so one CrossScratch reused across fills allocates nothing once
// every slot has grown to its largest shape, whatever the sequence of
// batch sizes. The zero value is ready to use; it is not safe for
// concurrent use.
type CrossScratch struct {
	slots []*linalg.Matrix
	top   int
}

// take returns the next free slot reshaped to rows×cols, contents
// unspecified. The caller hands it back by restoring sc.top.
//
//iotml:hotpath
func (sc *CrossScratch) take(rows, cols int) *linalg.Matrix {
	if sc.top == len(sc.slots) {
		//iotml:allow hotpathalloc -- grows once per new stack depth, never in steady state
		sc.slots = append(sc.slots, nil)
	}
	m := linalg.Reshape(sc.slots[sc.top], rows, cols)
	sc.slots[sc.top] = m
	sc.top++
	return m
}

// blockGramInto fills dst (pre-shaped n×n) with the Gram of k over the
// rows of x at storage width T. It is the one home of the Linear,
// Polynomial, RBF and Normalized block formulas, written once, generic
// over T, and shared by kernel.Gram, both widths of DenseGramCache and the
// Nyström landmark Gram: each maps the float64 value of an entry and
// rounds once at its store, so the float64 instantiation is the exact
// reference arithmetic. Any other kernel (a wrapper, or a caller's own)
// has no block formula: blockGramInto reports false, leaving dst
// untouched, and the caller takes the pairwise path.
func blockGramInto[T linalg.Float](dst *linalg.Dense[T], k Kernel, x *linalg.Dense[T]) bool {
	switch k := k.(type) {
	case Linear:
		linalg.SyrkInto(dst, x)
	case Polynomial:
		polynomialGram(k, dst, x)
	case RBF:
		rbfGram(k, dst, x)
	case Normalized:
		return normalizedGram(k, dst, x)
	default:
		return false
	}
	return true
}

// polynomialGram is the polynomial map applied to X·Xᵀ.
func polynomialGram[T linalg.Float](p Polynomial, dst, x *linalg.Dense[T]) {
	linalg.SyrkInto(dst, x)
	n, d, deg := x.Rows, dst.Data, float64(p.Degree)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := T(math.Pow(p.Gamma*float64(d[i*n+j])+p.Coef0, deg))
			d[i*n+j] = v
			d[j*n+i] = v
		}
	}
}

// rbfGram is exp(−γ·dist²) over the pairwise squared-distance expansion,
// with an exact unit diagonal. Each row's upper segment is contiguous, so
// it goes through linalg.ExpScaled before it is mirrored below the
// diagonal.
func rbfGram[T linalg.Float](r RBF, dst, x *linalg.Dense[T]) {
	linalg.PairwiseSquaredDistancesUpperInto(dst, x)
	n, d := x.Rows, dst.Data
	for i := 0; i < n; i++ {
		d[i*n+i] = 1
		linalg.ExpScaled(d[i*n+i+1:(i+1)*n], -r.Gamma)
		for j := i + 1; j < n; j++ {
			d[j*n+i] = d[i*n+j]
		}
	}
}

// normalizedGram is the cosine normalization of the base block,
// K'ᵢⱼ = Kᵢⱼ / √(Kᵢᵢ·Kⱼⱼ), with Eval's degenerate-diagonal rule
// (self-similarity ≤ 0 yields 0). It reports false when the base has no
// block formula at T.
func normalizedGram[T linalg.Float](nk Normalized, dst, x *linalg.Dense[T]) bool {
	if !blockGramInto(dst, nk.Base, x) {
		return false
	}
	n, d := x.Rows, dst.Data
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = float64(d[i*n+i])
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var v T
			if diag[i] > 0 && diag[j] > 0 {
				v = T(float64(d[i*n+j]) / math.Sqrt(diag[i]*diag[j]))
			}
			d[i*n+j] = v
			d[j*n+i] = v
		}
	}
	return true
}

// BindCross implements BlockGramKernel: dst = A·Bᵀ.
func (Linear) BindCross(b *linalg.Matrix) (BoundCross, bool) { return &boundLinear{b: b}, true }

type boundLinear struct{ b *linalg.Matrix }

// Fill implements BoundCross.
//
//iotml:hotpath
func (bl *boundLinear) Fill(dst, a *linalg.Matrix, _ *CrossScratch) { linalg.GemmNTInto(dst, a, bl.b) }

// BindCross implements BlockGramKernel: the polynomial map applied to
// A·Bᵀ.
func (p Polynomial) BindCross(b *linalg.Matrix) (BoundCross, bool) {
	return &boundPolynomial{p: p, b: b}, true
}

type boundPolynomial struct {
	p Polynomial
	b *linalg.Matrix
}

// Fill implements BoundCross.
//
//iotml:hotpath
func (bp *boundPolynomial) Fill(dst, a *linalg.Matrix, _ *CrossScratch) {
	linalg.GemmNTInto(dst, a, bp.b)
	deg := float64(bp.p.Degree)
	for i := range dst.Data {
		dst.Data[i] = math.Pow(bp.p.Gamma*dst.Data[i]+bp.p.Coef0, deg)
	}
}

// BindCross implements BlockGramKernel: exp(−γ·dist²) over the
// cross squared-distance expansion, with b's row norms taken once here.
func (r RBF) BindCross(b *linalg.Matrix) (BoundCross, bool) {
	return &boundRBF{gamma: r.Gamma, b: b, nb: linalg.RowSquaredNorms(nil, b)}, true
}

type boundRBF struct {
	gamma float64
	b     *linalg.Matrix
	nb    []float64 // ‖bⱼ‖²
}

// Fill implements BoundCross.
//
//iotml:hotpath
func (br *boundRBF) Fill(dst, a *linalg.Matrix, sc *CrossScratch) {
	top := sc.top
	na := linalg.RowSquaredNorms(sc.take(1, a.Rows).Data, a)
	linalg.CrossSquaredDistancesInto(dst, a, br.b, na, br.nb)
	linalg.ExpScaled(dst.Data, -br.gamma)
	sc.top = top
}

// BindCross implements BlockGramKernel: the base kernel bound to b's
// subspace columns, extracted once here; each fill extracts only a's.
func (s Subspace) BindCross(b *linalg.Matrix) (BoundCross, bool) {
	base, ok := BindCross(s.Base, linalg.ExtractColumnsInto(nil, b, s.Features))
	if !ok {
		return nil, false
	}
	return &boundSubspace{features: s.Features, base: base}, true
}

type boundSubspace struct {
	features []int
	base     BoundCross
}

// Fill implements BoundCross.
//
//iotml:hotpath
func (bs *boundSubspace) Fill(dst, a *linalg.Matrix, sc *CrossScratch) {
	top := sc.top
	cols := linalg.ExtractColumnsInto(sc.take(a.Rows, len(bs.features)), a, bs.features)
	bs.base.Fill(dst, cols, sc)
	sc.top = top
}

// BindCross implements BlockGramKernel. Self-similarities come from the
// base kernel's scalar Eval on each row — the same operation order as the
// pairwise path, so normalization preserves the base kernel's guarantee.
// b's are taken once here, a's on each fill.
func (nk Normalized) BindCross(b *linalg.Matrix) (BoundCross, bool) {
	base, ok := BindCross(nk.Base, b)
	if !ok {
		return nil, false
	}
	selfB := make([]float64, b.Rows)
	for j := range selfB {
		r := b.Row(j)
		selfB[j] = nk.Base.Eval(r, r)
	}
	return &boundNormalized{k: nk.Base, base: base, selfB: selfB}, true
}

type boundNormalized struct {
	k     Kernel
	base  BoundCross
	selfB []float64
}

// Fill implements BoundCross.
//
//iotml:hotpath
func (bn *boundNormalized) Fill(dst, a *linalg.Matrix, sc *CrossScratch) {
	bn.base.Fill(dst, a, sc)
	top := sc.top
	selfA := sc.take(1, a.Rows).Data
	for i := range selfA {
		r := a.Row(i)
		selfA[i] = bn.k.Eval(r, r)
	}
	for i := 0; i < a.Rows; i++ {
		for j, sb := range bn.selfB {
			v := 0.0
			if selfA[i] > 0 && sb > 0 {
				v = dst.Data[i*dst.Cols+j] / math.Sqrt(selfA[i]*sb)
			}
			dst.Data[i*dst.Cols+j] = v
		}
	}
	sc.top = top
}

// bindAll binds every member kernel to b, reporting false if any cannot
// vectorize.
func bindAll(kernels []Kernel, b *linalg.Matrix) ([]BoundCross, bool) {
	members := make([]BoundCross, len(kernels))
	for i, k := range kernels {
		var ok bool
		if members[i], ok = BindCross(k, b); !ok {
			return nil, false
		}
	}
	return members, true
}

// BindCross implements BlockGramKernel: each member bound to b.
func (c Sum) BindCross(b *linalg.Matrix) (BoundCross, bool) {
	members, ok := bindAll(c.Kernels, b)
	if !ok {
		return nil, false
	}
	return &boundSum{members: members, weights: c.Weights}, true
}

type boundSum struct {
	members []BoundCross
	weights []float64
}

// Fill implements BoundCross: the weighted sum of member blocks,
// accumulated in member order as Sum.Eval does.
//
//iotml:hotpath
func (bs *boundSum) Fill(dst, a *linalg.Matrix, sc *CrossScratch) {
	top := sc.top
	scratch := sc.take(dst.Rows, dst.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i, m := range bs.members {
		m.Fill(scratch, a, sc)
		w := 1.0
		if bs.weights != nil {
			w = bs.weights[i]
		}
		for j := range dst.Data {
			dst.Data[j] += w * scratch.Data[j]
		}
	}
	sc.top = top
}

// BindCross implements BlockGramKernel: each member bound to b.
func (c Product) BindCross(b *linalg.Matrix) (BoundCross, bool) {
	members, ok := bindAll(c.Kernels, b)
	if !ok {
		return nil, false
	}
	return &boundProduct{members: members}, true
}

type boundProduct struct{ members []BoundCross }

// Fill implements BoundCross: the elementwise product of member blocks,
// multiplied in member order as Product.Eval does.
//
//iotml:hotpath
func (bp *boundProduct) Fill(dst, a *linalg.Matrix, sc *CrossScratch) {
	top := sc.top
	scratch := sc.take(dst.Rows, dst.Cols)
	for i := range dst.Data {
		dst.Data[i] = 1
	}
	for _, m := range bp.members {
		m.Fill(scratch, a, sc)
		for j := range dst.Data {
			dst.Data[j] *= scratch.Data[j]
		}
	}
	sc.top = top
}
