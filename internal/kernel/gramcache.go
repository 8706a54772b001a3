// The exact float64 backend of the block cache (see blockcache.go): each
// block's Gram matrix is built once — vectorized over the cached column
// block, or pairwise for a block kernel without a vectorized path — and
// candidates combine the cached blocks into a full Gram.
package kernel

import (
	"repro/internal/linalg"
	"repro/internal/partition"
)

// BlockGramCache memoizes per-block Gram matrices for one fixed dataset and
// block-kernel factory. It is safe for concurrent use: a parallel search
// shares one cache across all worker evaluators, so a block computed by any
// worker is reused by every sibling candidate that contains it. Lookup
// (Block) and retention (Len, Bytes, FIFO eviction) are BlockCache's.
//
// Cached matrices are shared read-only; callers must combine them into a
// separate output buffer (see GramForPartition) and never mutate them.
type BlockGramCache struct {
	*BlockCache[*linalg.Matrix]
	x       [][]float64
	factory BlockKernelFactory
	// cols caches the contiguous column blocks feeding the vectorized Gram
	// path, so a block's features are gathered once per dataset rather than
	// re-sliced per instance pair.
	cols *BlockCache[*linalg.Matrix]
}

// AssemblyScratch is the per-caller scratch of GramForPartitionScratch and
// ApproxGramCache.FactorForPartitionScratch.
type AssemblyScratch = BlockScratch[*linalg.Matrix]

// NewBlockGramCache returns a cache over dataset rows x using factory to
// build each block kernel. limit bounds the number of retained blocks as in
// NewBlockCache (0 selects DefaultGramCacheBlocks, negative disables
// retention).
func NewBlockGramCache(x [][]float64, factory BlockKernelFactory, limit int) *BlockGramCache {
	c := &BlockGramCache{x: x, factory: factory}
	c.BlockCache = NewBlockCache(limit, matrixBytes, c.buildGram)
	c.cols = newColumnCache(x, limit)
	return c
}

// newColumnCache returns a cache of the contiguous column blocks of x.
func newColumnCache(x [][]float64, limit int) *BlockCache[*linalg.Matrix] {
	return NewBlockCache(limit, matrixBytes, func(_ []byte, feats []int) (*linalg.Matrix, error) {
		return linalg.FromRowsCols(x, feats), nil
	})
}

// matrixBytes is the cache footprint of a float64 matrix.
func matrixBytes(m *linalg.Matrix) int64 { return int64(len(m.Data)) * 8 }

// BlockMatrix returns the contiguous column-block matrix of the given
// 0-based feature indices, extracting and caching it on first use. The
// returned matrix is shared and must not be mutated.
func (c *BlockGramCache) BlockMatrix(feats []int) *linalg.Matrix {
	m, _ := c.cols.Block(feats) // column extraction never fails
	return m
}

// buildGram computes one block's Gram: block kernels that implement
// BlockGramKernel are evaluated through the vectorized path over the cached
// column block; everything else falls back to per-pair Eval.
func (c *BlockGramCache) buildGram(key []byte, feats []int) (*linalg.Matrix, error) {
	base := c.factory(feats)
	if bg, ok := base.(BlockGramKernel); ok {
		g := linalg.NewMatrix(len(c.x), len(c.x))
		xb, _ := c.cols.lookup(key, feats) // column extraction never fails
		if bg.GramInto(g, xb) {
			return g, nil
		}
	}
	return GramPairwise(Subspace{Base: base, Features: feats}, c.x), nil
}

// GramForPartition assembles the full Gram matrix of the multiple-kernel
// configuration induced by p from the cached per-block Grams, writing into
// out (reallocated if nil or mis-sized) and returning it.
//
// The assembly is bit-identical to Gram(FromPartition(p, factory, combiner), x):
// blocks are combined in partition.Blocks() order with the same per-entry
// operation order (weighted sum with weight 1/numBlocks, or product), so a
// search scoring through the cache returns the exact floating-point scores
// of the uncached path.
func (c *BlockGramCache) GramForPartition(p partition.Partition, combiner Combiner, out *linalg.Matrix) *linalg.Matrix {
	var sc AssemblyScratch
	return c.GramForPartitionScratch(p, combiner, out, &sc)
}

// GramForPartitionScratch is GramForPartition with caller-owned scratch:
// once every block of p is cached, assembling a candidate's Gram performs
// no allocation at all (see BlockCache.Blocks). It is the per-candidate
// path of the mkl evaluators.
//
//iotml:hotpath
func (c *BlockGramCache) GramForPartitionScratch(p partition.Partition, combiner Combiner, out *linalg.Matrix, sc *AssemblyScratch) *linalg.Matrix {
	n := len(c.x)
	if out == nil || out.Rows != n || out.Cols != n {
		out = linalg.NewMatrix(n, n)
	}
	grams, _ := c.Blocks(p, sc) // exact builds never fail
	if combiner == CombineProduct {
		for i := 0; i < n*n; i++ {
			acc := 1.0
			for _, g := range grams {
				acc *= g.Data[i]
			}
			out.Data[i] = acc
		}
		return out
	}
	w := 1 / float64(len(grams))
	for i := 0; i < n*n; i++ {
		acc := 0.0
		for _, g := range grams {
			acc += w * g.Data[i]
		}
		out.Data[i] = acc
	}
	return out
}
