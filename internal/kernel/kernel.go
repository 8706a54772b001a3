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
	g, p := packedInPlace(len(x))
	if !blockGramInto(p, k, linalg.FromRows(x)) {
		pairwiseGramInto(p, k, x)
	}
	return linalg.UnpackInto(g, p)
}

// GramPairwise returns the kernel matrix via one Eval call per instance
// pair — the scalar reference path, kept for kernels without a block fast
// path.
func GramPairwise(k Kernel, x [][]float64) *linalg.Matrix {
	g, p := packedInPlace(len(x))
	pairwiseGramInto(p, k, x)
	return linalg.UnpackInto(g, p)
}

// packedInPlace returns a fresh n×n matrix and a packed matrix of order n
// over its leading entries, for linalg.UnpackInto to unpack in place.
func packedInPlace(n int) (*linalg.Matrix, *linalg.Packed[float64]) {
	g := linalg.NewMatrix(n, n)
	return g, &linalg.Packed[float64]{N: n, Data: g.Data[:n*(n+1)/2]}
}

// pairwiseGramInto fills the packed dst (pre-shaped to order n) with one
// Eval call per instance pair i ≤ j, each rounded once to T at its store.
func pairwiseGramInto[T linalg.Float](dst *linalg.Packed[T], k Kernel, x [][]float64) {
	for i := range x {
		row := dst.Row(i)
		for c := range row {
			row[c] = T(k.Eval(x[i], x[i+c]))
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
// the symmetric Gram matrix K and the label vector y ∈ {-1,+1}:
// <K', yyᵀ>_F / (||K'||_F · ||yyᵀ||_F), where K' = K - 1K/n - K1/n + 1K1/n²
// is the feature-space centering of K. Higher alignment predicts better
// kernel quality at negligible cost — the cheap objective of the lattice
// search. K is read in place through its upper rows, upper[i] = K[i][i:]
// (Packed.UpperRows of a cached block, Dense.UpperRows of a full Gram),
// with K[i][j] = upper[j][i−j] below the diagonal: one pass takes the row
// means and the total in float64 (alignRowSums), a second rebuilds each
// centered entry in row-major order, rounded to T once as a stored
// centered Gram would hold it, and accumulates both sums in float64 at
// either storage width. The second pass takes alignPanel rows at a time:
// their entries below the diagonal are copied first, alignPanel
// contiguous entries of each upper[j] above the panel, so one cache line
// of a row above serves every row of the panel instead of one.
func CenteredAlignment[T linalg.Float](upper [][]T, y []int) float64 {
	n := len(upper)
	if n == 0 || len(y) != n {
		return 0
	}
	rowMean, total := alignRowSums(upper)
	left := make([]T, alignPanel*n)
	var kyy, kk float64
	for i := 0; i < n; i += alignPanel {
		h := min(alignPanel, n-i)
		// left[j·h + r] = K[i+r][j] for every j < i+r: whole panels of
		// upper[j] above the panel, then the panel's own lower triangle.
		j := 0
		if h == alignPanel {
			for ; j < i; j++ {
				l := left[j*alignPanel : (j+1)*alignPanel : (j+1)*alignPanel]
				u := upper[j][i-j : i-j+alignPanel : i-j+alignPanel]
				l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7] = u[0], u[1], u[2], u[3], u[4], u[5], u[6], u[7]
			}
		}
		for ; j < i+h; j++ {
			r0 := max(j-i, 0)
			copy(left[j*h+r0:(j+1)*h], upper[j][i+r0-j:])
		}
		for r := 0; r < h; r++ {
			row := i + r
			mi, yi := rowMean[row], y[row]
			kyy, kk = alignTerms(kyy, kk, left[r:], h, mi, total, rowMean[:row], yi, y[:row])
			kyy, kk = alignTerms(kyy, kk, upper[row], 1, mi, total, rowMean[row:], yi, y[row:])
		}
	}
	if kk <= 0 {
		return 0
	}
	return kyy / (math.Sqrt(kk) * float64(n))
}

// alignTerms adds to CenteredAlignment's two sums the terms of one row
// of K with mean mi and label yi: its entries f[c·stride], in ascending
// c, for the columns whose means and labels are rowMean[c] and y[c]. Each
// centered entry is rounded to T once, as a stored centered Gram would
// hold it.
func alignTerms[T linalg.Float](kyy, kk float64, f []T, stride int, mi, total float64, rowMean []float64, yi int, y []int) (float64, float64) {
	y = y[:len(rowMean)]
	for c, mj := range rowMean {
		v := float64(T(float64(f[c*stride]) - mi - mj + total))
		kyy += v * float64(yi*y[c])
		kk += v * v
	}
	return kyy, kk
}

// alignPanel is the number of rows CenteredAlignment's second pass takes
// at a time: eight float64 entries are one cache line.
const alignPanel = 8

// alignRowSums returns the row means of the symmetric K held as upper rows
// and its mean, each row's sum taken over ascending columns in float64 and
// the total over ascending rows. Rows go four per sweep, so four sums are
// in flight: a row's terms left of the diagonal are gathered into its
// rowMean slot, in ascending order, by the sweeps above it, then the
// sweep adds its own 4×4 diagonal block and its segments to the right,
// while adding each of those columns' terms from the four rows to their
// slots in row order.
func alignRowSums[T linalg.Float](upper [][]T) (rowMean []float64, total float64) {
	n := len(upper)
	rowMean = make([]float64, n)
	r := 0
	for ; r+4 <= n; r += 4 {
		u0, u1, u2, u3 := upper[r], upper[r+1], upper[r+2], upper[r+3]
		s0 := rowMean[r] + float64(u0[0]) + float64(u0[1]) + float64(u0[2]) + float64(u0[3])
		s1 := rowMean[r+1] + float64(u0[1]) + float64(u1[0]) + float64(u1[1]) + float64(u1[2])
		s2 := rowMean[r+2] + float64(u0[2]) + float64(u1[1]) + float64(u2[0]) + float64(u2[1])
		s3 := rowMean[r+3] + float64(u0[3]) + float64(u1[2]) + float64(u2[1]) + float64(u3[0])
		rest := rowMean[r+4:]
		u0, u1, u2, u3 = u0[4:][:len(rest)], u1[3:][:len(rest)], u2[2:][:len(rest)], u3[1:][:len(rest)]
		for c := range rest {
			a, b, d, e := float64(u0[c]), float64(u1[c]), float64(u2[c]), float64(u3[c])
			s0 += a
			s1 += b
			s2 += d
			s3 += e
			rest[c] = rest[c] + a + b + d + e
		}
		for q, s := range [4]float64{s0, s1, s2, s3} {
			rowMean[r+q] = s / float64(n)
			total += s
		}
	}
	for ; r < n; r++ {
		row := upper[r]
		s := rowMean[r]
		for _, v := range row {
			s += float64(v)
		}
		rowMean[r] = s / float64(n)
		total += s
		for c, v := range row[1:] {
			rowMean[r+1+c] += float64(v)
		}
	}
	return rowMean, total / float64(n*n)
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
