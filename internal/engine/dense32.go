// Dense32 is the Float32 backend's Gram assembly: a kernel.BlockCache of
// per-block float32 Grams (the one block cache, with its one retention
// policy), plus the worker-owned assembly scratch and ridge solver the
// evaluator threads through it.
//
// Determinism: each block Gram is produced by one deterministic routine
// over the cached float32 column block — two workers racing on a cold
// block compute identical matrices and the first store wins — and the
// per-entry combine accumulates in float64 in partition-block order, so
// assembled Grams (and therefore scores) are bit-identical at every worker
// count, matching the reference backend's parallel-equivalence contract.
package engine

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/partition"
)

// Dense32 memoizes per-block float32 Gram matrices for one fixed dataset
// and block-kernel factory. Safe for concurrent use; cached matrices are
// shared read-only and must be combined into a separate output buffer.
type Dense32 struct {
	*kernel.BlockCache[*M32]
	x       [][]float64
	factory kernel.BlockKernelFactory
	// cols caches the contiguous float32 column blocks feeding the
	// vectorized routines — the dataset is narrowed to f32 once per block,
	// not per candidate.
	cols *kernel.BlockCache[*M32]
}

// Scratch32 is the per-caller scratch of GramForPartitionScratch.
type Scratch32 = kernel.BlockScratch[*M32]

// NewDense32 returns a float32 block-Gram cache over dataset rows x using
// factory to build each block kernel. limit follows
// kernel.NewBlockCache: 0 selects kernel.DefaultGramCacheBlocks,
// negative disables retention (every block is recomputed).
func NewDense32(x [][]float64, factory kernel.BlockKernelFactory, limit int) *Dense32 {
	c := &Dense32{x: x, factory: factory}
	c.BlockCache = kernel.NewBlockCache(limit, m32Bytes, c.computeBlock)
	c.cols = kernel.NewBlockCache(limit, m32Bytes, func(_ []byte, feats []int) (*M32, error) {
		sub := NewM32(len(x), len(feats))
		for i, r := range x {
			dstRow := sub.Data[i*len(feats) : (i+1)*len(feats)]
			for k, f := range feats {
				dstRow[k] = float32(r[f])
			}
		}
		return sub, nil
	})
	return c
}

// m32Bytes is the cache footprint of a float32 matrix.
func m32Bytes(m *M32) int64 { return int64(len(m.Data)) * 4 }

// blockMatrix returns the cached contiguous float32 column block of feats.
func (c *Dense32) blockMatrix(feats []int) *M32 {
	m, _ := c.cols.Block(feats) // column extraction never fails
	return m
}

// computeBlock builds one block's float32 Gram: the elementary kernels run
// natively in f32 storage / f64 accumulation over the cached float32
// column block; kernels without a native f32 routine fall back to the
// scalar float64 reference and truncate once per entry — still within the
// tolerance contract, just without the memory-traffic win.
func (c *Dense32) computeBlock(_ []byte, feats []int) (*M32, error) {
	base := c.factory(feats)
	out := NewM32(len(c.x), len(c.x))
	if c.gramInto32(out, base, feats) {
		return out, nil
	}
	g := kernel.GramPairwise(kernel.Subspace{Base: base, Features: feats}, c.x)
	return From64(out, g), nil
}

// gramInto32 fills dst with the block kernel's Gram through the native f32
// routines, reporting false (dst unspecified) when the kernel type has no
// native path.
func (c *Dense32) gramInto32(dst *M32, k kernel.Kernel, feats []int) bool {
	switch kk := k.(type) {
	case kernel.Linear:
		Syrk32(dst, c.blockMatrix(feats))
		return true
	case kernel.Polynomial:
		x := c.blockMatrix(feats)
		Syrk32(dst, x)
		n := x.Rows
		deg := float64(kk.Degree)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := float32(math.Pow(kk.Gamma*float64(dst.Data[i*n+j])+kk.Coef0, deg))
				dst.Data[i*n+j] = v
				dst.Data[j*n+i] = v
			}
		}
		return true
	case kernel.RBF:
		x := c.blockMatrix(feats)
		PairwiseSquaredDistances32(dst, x)
		n := x.Rows
		for i := 0; i < n; i++ {
			dst.Data[i*n+i] = 1
			for j := i + 1; j < n; j++ {
				v := float32(math.Exp(-kk.Gamma * float64(dst.Data[i*n+j])))
				dst.Data[i*n+j] = v
				dst.Data[j*n+i] = v
			}
		}
		return true
	case kernel.Normalized:
		if !c.gramInto32(dst, kk.Base, feats) {
			return false
		}
		n := dst.Rows
		diag := make([]float64, n)
		for i := 0; i < n; i++ {
			diag[i] = float64(dst.Data[i*n+i])
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := float32(0)
				if diag[i] > 0 && diag[j] > 0 {
					v = float32(float64(dst.Data[i*n+j]) / math.Sqrt(diag[i]*diag[j]))
				}
				dst.Data[i*n+j] = v
				dst.Data[j*n+i] = v
			}
		}
		return true
	default:
		return false
	}
}

// GramForPartitionScratch assembles the full float32 Gram of the
// multiple-kernel configuration induced by p from the cached per-block
// Grams, writing into out (reshaped) and returning it. Blocks are combined
// in partition.Blocks() order with float64 per-entry accumulation —
// weighted sum with weight 1/numBlocks, or product — mirroring the float64
// cache's assembly so the two backends differ only by f32 rounding.
//
//iotml:hotpath
func (c *Dense32) GramForPartitionScratch(p partition.Partition, combiner kernel.Combiner, out *M32, sc *Scratch32) *M32 {
	n := len(c.x)
	out = Reshape32(out, n, n)
	grams, _ := c.Blocks(p, sc) // f32 builds never fail
	if combiner == kernel.CombineProduct {
		for i := 0; i < n*n; i++ {
			acc := 1.0
			for _, g := range grams {
				acc *= float64(g.Data[i])
			}
			out.Data[i] = float32(acc)
		}
		return out
	}
	w := 1 / float64(len(grams))
	for i := 0; i < n*n; i++ {
		acc := 0.0
		for _, g := range grams {
			acc += w * float64(g.Data[i])
		}
		out.Data[i] = float32(acc)
	}
	return out
}

// Solver32 is the factor/solve scratch of the Float32 backend: one ridge
// system per CV fold, reusing the float32 regularized-Gram, Cholesky, and
// coefficient buffers across folds and candidates. A Solver32 belongs to
// one goroutine.
type Solver32 struct {
	kreg, chol *M32
	rhs, beta  []float32
}

// RidgeSolve assembles K + diag·I in float32 scratch and factor/solves it,
// mirroring kernelmachine.Ridge.TrainScratch's regularization schedule
// exactly: first λ·n/10, then the heavier 1 + λ·n fallback when the
// Cholesky pivot fails. gram is read-only; the returned coefficients alias
// the solver's scratch and are valid until the next RidgeSolve call.
func (s *Solver32) RidgeSolve(gram *M32, y []int, lambda float64) ([]float32, error) {
	n := len(y)
	s.kreg = Reshape32(s.kreg, n, n)
	if s.chol == nil {
		s.chol = NewM32(n, n)
	}
	assemble := func(diag float64) {
		copy(s.kreg.Data, gram.Data)
		for i := 0; i < n; i++ {
			s.kreg.Data[i*n+i] += float32(diag)
		}
	}
	assemble(lambda * float64(n) / 10)
	if cap(s.rhs) < n {
		s.rhs = make([]float32, n)
	}
	s.rhs = s.rhs[:n]
	for i, v := range y {
		s.rhs[i] = float32(v)
	}
	if err := Cholesky32(s.chol, s.kreg); err != nil {
		// Fall back to a heavier ridge before giving up, as the f64 trainer
		// does.
		assemble(1 + lambda*float64(n))
		if err := Cholesky32(s.chol, s.kreg); err != nil {
			return nil, err
		}
	}
	s.beta = SolveCholesky32(s.beta, s.chol, s.rhs)
	return s.beta, nil
}
