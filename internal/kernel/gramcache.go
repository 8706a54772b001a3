// The dense backends of the block cache (see blockcache.go): each block's
// Gram matrix is built once — vectorized over the cached column block, or
// pairwise for a block kernel without a block formula — and candidates
// combine the cached blocks into a full Gram. One implementation serves
// both storage widths: DenseGramCache[float64] (BlockGramCache) is the
// exact reference backend, DenseGramCache[float32] the Float32 backend,
// which halves the memory of every cached block and assembled Gram while
// accumulating in float64 like every linalg kernel.
package kernel

import (
	"unsafe"

	"repro/internal/linalg"
	"repro/internal/partition"
)

// DenseGramCache memoizes per-block Gram matrices, stored at width T, for
// one fixed dataset and block-kernel factory. It is safe for concurrent
// use: a parallel search shares one cache across all worker evaluators, so
// a block computed by any worker is reused by every sibling candidate that
// contains it. Lookup (Block) and retention (Len, Bytes, FIFO eviction) are
// BlockCache's.
//
// Cached matrices are shared read-only; callers must combine them into a
// separate output buffer (see GramForPartition) and never mutate them.
//
// Determinism: each block Gram is produced by one deterministic routine
// over the cached column block — two workers racing on a cold block
// compute identical matrices and the first store wins — and assembly
// accumulates in float64 in partition-block order, so assembled Grams (and
// therefore scores) are bit-identical at every worker count, at both
// widths.
type DenseGramCache[T linalg.Float] struct {
	*BlockCache[*linalg.Dense[T]]
	x       [][]float64
	factory BlockKernelFactory
	// cols caches the contiguous column blocks (rounded to T once) feeding
	// the block formulas, so a block's features are gathered once per
	// dataset rather than re-sliced per instance pair.
	cols *BlockCache[*linalg.Dense[T]]
}

// BlockGramCache is the exact float64 block-Gram cache.
type BlockGramCache = DenseGramCache[float64]

// AssemblyScratch is the per-caller scratch of the float64
// GramForPartitionScratch and ApproxGramCache.FactorForPartitionScratch.
type AssemblyScratch = BlockScratch[*linalg.Matrix]

// NewBlockGramCache returns the exact float64 cache over dataset rows x
// (see NewDenseGramCache).
func NewBlockGramCache(x [][]float64, factory BlockKernelFactory, limit int) *BlockGramCache {
	return NewDenseGramCache[float64](x, factory, limit)
}

// NewDenseGramCache returns a cache over dataset rows x, storing blocks at
// width T and using factory to build each block kernel. limit bounds the
// number of retained blocks as in NewBlockCache (0 selects
// DefaultGramCacheBlocks, negative disables retention).
func NewDenseGramCache[T linalg.Float](x [][]float64, factory BlockKernelFactory, limit int) *DenseGramCache[T] {
	c := &DenseGramCache[T]{x: x, factory: factory}
	c.BlockCache = NewBlockCache(limit, denseBytes[T], c.buildGram)
	c.cols = newColumnCache[T](x, limit)
	return c
}

// newColumnCache returns a cache of the contiguous column blocks of x at
// width T.
func newColumnCache[T linalg.Float](x [][]float64, limit int) *BlockCache[*linalg.Dense[T]] {
	return NewBlockCache(limit, denseBytes[T], func(_ []byte, feats []int) (*linalg.Dense[T], error) {
		return linalg.FromRowsCols[T](x, feats), nil
	})
}

// denseBytes is the cache footprint of a dense matrix.
func denseBytes[T linalg.Float](m *linalg.Dense[T]) int64 {
	return int64(len(m.Data)) * int64(unsafe.Sizeof(T(0)))
}

// BlockMatrix returns the contiguous column-block matrix of the given
// 0-based feature indices, extracting and caching it on first use. The
// returned matrix is shared and must not be mutated.
func (c *DenseGramCache[T]) BlockMatrix(feats []int) *linalg.Dense[T] {
	m, _ := c.cols.Block(feats) // column extraction never fails
	return m
}

// buildGram computes one block's Gram: the block formulas (blockGramInto)
// run over the cached column block; a block kernel without a formula at
// this width takes the scalar float64 reference path, rounded once per
// entry.
func (c *DenseGramCache[T]) buildGram(key []byte, feats []int) (*linalg.Dense[T], error) {
	base := c.factory(feats)
	if _, ok := base.(BlockGramKernel); ok {
		g := linalg.NewDense[T](len(c.x), len(c.x))
		xb, _ := c.cols.lookup(key, feats) // column extraction never fails
		if blockGramInto(g, base, xb) {
			return g, nil
		}
	}
	return linalg.Convert[T](nil, GramPairwise(Subspace{Base: base, Features: feats}, c.x)), nil
}

// GramForPartition assembles the full Gram matrix of the multiple-kernel
// configuration induced by p from the cached per-block Grams, writing into
// out (reshaped) and returning it.
//
// At float64 the assembly is bit-identical to
// Gram(FromPartition(p, factory, combiner), x): blocks are combined in
// partition.Blocks() order with the same per-entry operation order
// (weighted sum with weight 1/numBlocks, or product), so a search scoring
// through the cache returns the exact floating-point scores of the
// uncached path. At float32 the same float64 accumulation is rounded once
// per entry.
func (c *DenseGramCache[T]) GramForPartition(p partition.Partition, combiner Combiner, out *linalg.Dense[T]) *linalg.Dense[T] {
	var sc BlockScratch[*linalg.Dense[T]]
	return c.GramForPartitionScratch(p, combiner, out, &sc)
}

// GramForPartitionScratch is GramForPartition with caller-owned scratch:
// once every block of p is cached, assembling a candidate's Gram performs
// no allocation at all (see BlockCache.Blocks). It is the per-candidate
// path of the mkl evaluators.
//
//iotml:hotpath
func (c *DenseGramCache[T]) GramForPartitionScratch(p partition.Partition, combiner Combiner, out *linalg.Dense[T], sc *BlockScratch[*linalg.Dense[T]]) *linalg.Dense[T] {
	n := len(c.x)
	out = linalg.Reshape(out, n, n)
	grams, _ := c.Blocks(p, sc) // dense builds never fail
	od := out.Data
	if combiner == CombineProduct {
		for i := range od {
			acc := 1.0
			for _, g := range grams {
				acc *= float64(g.Data[i])
			}
			od[i] = T(acc)
		}
		return out
	}
	w := 1 / float64(len(grams))
	for i := range od {
		acc := 0.0
		for _, g := range grams {
			acc += w * float64(g.Data[i])
		}
		od[i] = T(acc)
	}
	return out
}
