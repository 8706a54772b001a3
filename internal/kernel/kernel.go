// Package kernel implements the kernel functions and kernel algebra of the
// paper's Section II-A/III: elementary kernels (linear, polynomial, RBF),
// restriction of a kernel to a feature block, and the combination of block
// kernels into a multiple-kernel configuration indexed by a partition of
// the feature set.
//
// A partition's Gram matrix is assembled in one place, DenseGramCache
// (gramcache.go): each block's Gram comes from the vectorized block
// formulas (blockgram.go, including the determinism contract), or from the
// scalar per-pair Eval loop for a block kernel without one, and is cached
// across search candidates; the blocks are then combined in partition
// order. Gram builds a single kernel's matrix by the same formulas.
package kernel

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/linalg"
	"repro/internal/partition"
)

// Kernel evaluates a positive-semidefinite similarity between two feature
// vectors.
type Kernel interface {
	Eval(x, y []float64) float64
	String() string
}

// Linear is the inner-product kernel <x, y>.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func (Linear) String() string { return "linear" }

// Polynomial is (gamma <x,y> + coef0)^degree.
type Polynomial struct {
	Degree int
	Gamma  float64
	Coef0  float64
}

// Eval implements Kernel.
func (p Polynomial) Eval(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return math.Pow(p.Gamma*s+p.Coef0, float64(p.Degree))
}

func (p Polynomial) String() string {
	return fmt.Sprintf("poly(d=%d,g=%g,c=%g)", p.Degree, p.Gamma, p.Coef0)
}

// RBF is exp(-gamma ||x-y||²) — multiplicative over features, matching the
// paper's "aggregating (e.g. by multiplication) the elements in a subset of
// the data features": the RBF kernel on a block is the product of the
// per-feature RBF kernels.
type RBF struct {
	Gamma float64
}

// Eval implements Kernel.
func (r RBF) Eval(x, y []float64) float64 {
	s := 0.0
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Exp(-r.Gamma * s)
}

func (r RBF) String() string { return fmt.Sprintf("rbf(g=%g)", r.Gamma) }

// Subspace restricts a base kernel to the given feature indices (0-based) —
// the block kernel of Section III.
type Subspace struct {
	Base     Kernel
	Features []int
}

// Eval implements Kernel.
func (s Subspace) Eval(x, y []float64) float64 {
	xs := make([]float64, len(s.Features))
	ys := make([]float64, len(s.Features))
	for i, f := range s.Features {
		xs[i] = x[f]
		ys[i] = y[f]
	}
	return s.Base.Eval(xs, ys)
}

func (s Subspace) String() string {
	return fmt.Sprintf("%v|%v", s.Base, s.Features)
}

// Sum is the weighted sum of kernels (uniform when Weights is nil) — the
// standard linear multiple-kernel combiner.
type Sum struct {
	Kernels []Kernel
	Weights []float64
}

// Eval implements Kernel.
func (c Sum) Eval(x, y []float64) float64 {
	s := 0.0
	for i, k := range c.Kernels {
		w := 1.0
		if c.Weights != nil {
			w = c.Weights[i]
		}
		s += w * k.Eval(x, y)
	}
	return s
}

func (c Sum) String() string {
	parts := make([]string, len(c.Kernels))
	for i, k := range c.Kernels {
		parts[i] = k.String()
	}
	return "sum(" + strings.Join(parts, "+") + ")"
}

// Product multiplies kernels — the nonlinear combiner the paper mentions.
type Product struct {
	Kernels []Kernel
}

// Eval implements Kernel.
func (c Product) Eval(x, y []float64) float64 {
	s := 1.0
	for _, k := range c.Kernels {
		s *= k.Eval(x, y)
	}
	return s
}

func (c Product) String() string {
	parts := make([]string, len(c.Kernels))
	for i, k := range c.Kernels {
		parts[i] = k.String()
	}
	return "prod(" + strings.Join(parts, "*") + ")"
}

// Combiner selects how block kernels are aggregated across partition blocks.
type Combiner int

const (
	// CombineSum adds block kernels (the usual MKL choice).
	CombineSum Combiner = iota
	// CombineProduct multiplies block kernels (ablation; equivalent to one
	// global RBF when every base is RBF with equal gamma).
	CombineProduct
)

// BlockKernelFactory builds the kernel for one block of features (0-based
// indices). The factory sees the block so per-block bandwidth heuristics
// (e.g. gamma scaled by block size) are possible.
type BlockKernelFactory func(features []int) Kernel

// RBFFactory returns a factory producing RBF kernels with gamma = base /
// |block| — the median-distance-free heuristic that keeps products of block
// kernels comparable to a global kernel.
func RBFFactory(base float64) BlockKernelFactory {
	return func(features []int) Kernel {
		return RBF{Gamma: base / float64(len(features))}
	}
}

// LinearFactory returns a factory producing the linear kernel regardless of
// block.
func LinearFactory() BlockKernelFactory {
	return func([]int) Kernel { return Linear{} }
}

// FromPartition builds the multiple-kernel configuration induced by a
// partition of the feature set: one block kernel per block (features in the
// partition are 1-based; dataset columns are 0-based), aggregated by the
// combiner. This is the paper's correspondence between multiple-kernel
// configurations and points of the partition lattice.
func FromPartition(p partition.Partition, factory BlockKernelFactory, combiner Combiner) Kernel {
	blocks := p.Blocks()
	kernels := make([]Kernel, len(blocks))
	for i, blk := range blocks {
		feats := make([]int, len(blk))
		for j, f := range blk {
			feats[j] = f - 1
		}
		kernels[i] = Subspace{Base: factory(feats), Features: feats}
	}
	if combiner == CombineProduct {
		return Product{Kernels: kernels}
	}
	// Normalize by block count so configurations of different sizes stay on
	// one scale.
	w := make([]float64, len(kernels))
	for i := range w {
		w[i] = 1 / float64(len(kernels))
	}
	return Sum{Kernels: kernels, Weights: w}
}

// Gram returns the kernel matrix K[i][j] = k(X[i], X[j]). The base
// kernels (Linear, Polynomial, RBF, Normalized) are evaluated by their
// vectorized block formulas (see blockgram.go for the determinism
// contract); any other kernel takes the pairwise Eval loop of
// GramPairwise. A partition's configuration Gram comes from
// DenseGramCache.GramForPartition instead.
func Gram(k Kernel, x [][]float64) *linalg.Matrix {
	n := len(x)
	g := linalg.NewMatrix(n, n)
	if !blockGramInto(g, k, linalg.FromRows(x)) {
		pairwiseGramInto(g, k, x)
	}
	return g
}

// GramPairwise returns the kernel matrix via one Eval call per instance
// pair — the scalar reference path, kept for kernels without a block fast
// path.
func GramPairwise(k Kernel, x [][]float64) *linalg.Matrix {
	n := len(x)
	g := linalg.NewMatrix(n, n)
	pairwiseGramInto(g, k, x)
	return g
}

// pairwiseGramInto fills dst (pre-shaped n×n) with one Eval call per
// instance pair, each float64 value rounded once to T at its store.
func pairwiseGramInto[T linalg.Float](dst *linalg.Dense[T], k Kernel, x [][]float64) {
	n := len(x)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := T(k.Eval(x[i], x[j]))
			dst.Data[i*n+j] = v
			dst.Data[j*n+i] = v
		}
	}
}

// CrossGram returns the rectangular matrix K[i][j] = k(A[i], B[j]),
// binding k to b and filling once through the vectorized block path when k
// supports it.
func CrossGram(k Kernel, a, b [][]float64) *linalg.Matrix {
	if bound, ok := BindCross(k, linalg.FromRows(b)); ok {
		g := linalg.NewMatrix(len(a), len(b))
		bound.Fill(g, linalg.FromRows(a), new(CrossScratch))
		return g
	}
	return CrossGramPairwise(k, a, b)
}

// CrossGramPairwise returns the rectangular kernel matrix via per-pair Eval
// calls — the scalar reference path.
func CrossGramPairwise(k Kernel, a, b [][]float64) *linalg.Matrix {
	g := linalg.NewMatrix(len(a), len(b))
	for i := range a {
		for j := range b {
			g.Set(i, j, k.Eval(a[i], b[j]))
		}
	}
	return g
}

// CenteredAlignment returns the centered kernel-target alignment between
// the Gram matrix g and the label vector y ∈ {-1,+1}:
// <K', yyᵀ>_F / (||K'||_F · ||yyᵀ||_F), where K' = K - 1K/n - K1/n + 1K1/n²
// is the feature-space centering of K. Higher alignment predicts better
// kernel quality at negligible cost — the cheap objective of the lattice
// search. g is only read, so it may be a shared cache block: one pass
// takes the row means and the total in float64, a second rebuilds each
// centered entry, rounded to T once as a stored centered Gram would hold
// it, and accumulates both sums in float64 at either storage width.
func CenteredAlignment[T linalg.Float](g *linalg.Dense[T], y []int) float64 {
	n := g.Rows
	if n == 0 || len(y) != n {
		return 0
	}
	// Row sums four rows per sweep, one accumulator each: the same sums,
	// with four latency chains in flight instead of one.
	rowMean := make([]float64, n)
	total := 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		r0 := g.Data[i*n:][:n]
		r1 := g.Data[(i+1)*n:][:n]
		r2 := g.Data[(i+2)*n:][:n]
		r3 := g.Data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j := range r0 {
			s0 += float64(r0[j])
			s1 += float64(r1[j])
			s2 += float64(r2[j])
			s3 += float64(r3[j])
		}
		for r, s := range [4]float64{s0, s1, s2, s3} {
			rowMean[i+r] = s / float64(n)
			total += s
		}
	}
	for ; i < n; i++ {
		s := 0.0
		for _, v := range g.Data[i*n : (i+1)*n] {
			s += float64(v)
		}
		rowMean[i] = s / float64(n)
		total += s
	}
	total /= float64(n * n)
	var kyy, kk float64
	for i := 0; i < n; i++ {
		row := g.Data[i*n : (i+1)*n]
		mi := rowMean[i]
		for j, f := range row {
			v := float64(T(float64(f) - mi - rowMean[j] + total))
			kyy += v * float64(y[i]*y[j])
			kk += v * v
		}
	}
	if kk <= 0 {
		return 0
	}
	return kyy / (math.Sqrt(kk) * float64(n))
}

// Normalized wraps a kernel with cosine normalization:
// K'(x,y) = K(x,y) / sqrt(K(x,x) K(y,y)), mapping every point to the unit
// sphere in feature space. Useful when block kernels of different scales
// are combined, so no block dominates the sum by magnitude alone.
type Normalized struct {
	Base Kernel
}

// Eval implements Kernel. Degenerate self-similarities (<= 0) yield 0.
func (n Normalized) Eval(x, y []float64) float64 {
	kxy := n.Base.Eval(x, y)
	kxx := n.Base.Eval(x, x)
	kyy := n.Base.Eval(y, y)
	if kxx <= 0 || kyy <= 0 {
		return 0
	}
	return kxy / math.Sqrt(kxx*kyy)
}

func (n Normalized) String() string { return "norm(" + n.Base.String() + ")" }

// NormalizedFactory wraps a block-kernel factory with cosine normalization.
func NormalizedFactory(base BlockKernelFactory) BlockKernelFactory {
	return func(features []int) Kernel {
		return Normalized{Base: base(features)}
	}
}
