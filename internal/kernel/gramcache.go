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

// buildGram computes one block's Gram into a fresh matrix (see gramInto).
func (c *DenseGramCache[T]) buildGram(key []byte, feats []int) (*linalg.Dense[T], error) {
	g := linalg.NewDense[T](len(c.x), len(c.x))
	c.gramInto(g, key, feats)
	return g, nil
}

// gramInto fills dst (pre-shaped n×n) with one block's Gram: the block
// formulas (blockGramInto) run over the cached column block; a block
// kernel without a formula takes the scalar float64 reference path,
// rounded once per entry.
func (c *DenseGramCache[T]) gramInto(dst *linalg.Dense[T], key []byte, feats []int) {
	base := c.factory(feats)
	xb, _ := c.cols.lookup(key, feats) // column extraction never fails
	if !blockGramInto(dst, base, xb) {
		pairwiseGramInto(dst, Subspace{Base: base, Features: feats}, c.x)
	}
}

// GramForPartition assembles the full Gram matrix of the multiple-kernel
// configuration induced by p from its per-block Grams, writing into out
// (reshaped) and returning it. It is the one place a partition's Gram is
// assembled: the search's candidates, the deployment fit and the
// singleton rankings all come through it.
//
// Blocks are combined in partition.Blocks() order with Eval's per-entry
// operations — the sum combiner weighs every block by 1/numBlocks, the
// product multiplies — accumulated in float64, so at float64 the result is
// bit-identical to evaluating FromPartition(p, factory, combiner) one
// block kernel at a time over the same block formulas, at every worker
// count and every retention limit. At float32 the same float64
// accumulation is rounded once per entry.
func (c *DenseGramCache[T]) GramForPartition(p partition.Partition, combiner Combiner, out *linalg.Dense[T]) *linalg.Dense[T] {
	var sc BlockScratch[*linalg.Dense[T]]
	return c.GramForPartitionScratch(p, combiner, out, &sc)
}

// GramForPartitionScratch is GramForPartition with caller-owned scratch:
// once every block of p is cached, assembling a candidate's Gram performs
// no allocation at all (see BlockCache.Blocks). It is the per-candidate
// path of the mkl evaluators.
//
// Only the upper triangle is summed, one row segment [i, n) at a time
// across every gathered block (in place at float64, in sc's float64 row
// at float32), then mirrored once. That is exact because every block
// formula and the pairwise path store a bitwise-symmetric block. With
// retention disabled the float64 assembly instead folds the blocks into
// out one at a time (fold), so it holds out plus one block, whatever the
// number of blocks; the float32 one still gathers, since each entry is
// rounded once.
//
//iotml:hotpath
func (c *DenseGramCache[T]) GramForPartitionScratch(p partition.Partition, combiner Combiner, out *linalg.Dense[T], sc *BlockScratch[*linalg.Dense[T]]) *linalg.Dense[T] {
	n := len(c.x)
	out = linalg.Reshape(out, n, n)
	out64, exact := any(out).(*linalg.Matrix)
	if exact && !c.Retains() {
		c.fold(p, combiner, out64.Data, sc)
		linalg.MirrorUpper(out)
		return out
	}
	grams, _ := c.Blocks(p, sc) // dense builds never fail
	w := 1 / float64(len(grams))
	if !exact && cap(sc.row) < n {
		sc.row = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		var acc []float64
		if exact {
			acc = out64.Data[i*n+i : (i+1)*n]
		} else {
			acc = sc.row[:n-i]
		}
		initRow(acc, combiner)
		for _, g := range grams {
			accumulate(acc, g.Data[i*n+i:(i+1)*n], combiner, w)
		}
		if !exact {
			for j, v := range acc {
				out.Data[i*n+i+j] = T(v)
			}
		}
	}
	linalg.MirrorUpper(out)
	return out
}

// initRow sets acc to the combiner's identity: 1 for the product, 0 for
// the sum.
func initRow(acc []float64, combiner Combiner) {
	init := 0.0
	if combiner == CombineProduct {
		init = 1
	}
	for j := range acc {
		acc[j] = init
	}
}

// accumulate folds one block's row segment seg into acc: acc *= seg for
// the product, acc += w·seg for the sum.
func accumulate[T linalg.Float](acc []float64, seg []T, combiner Combiner, w float64) {
	if combiner == CombineProduct {
		linalg.AccumulateProduct(acc, seg)
		return
	}
	linalg.AccumulateScaled(acc, w, seg)
}

// fold is the retention-disabled float64 assembly of od's upper triangle:
// each block of p, in partition-block order, is built into sc's one block
// buffer and accumulated before the next is built, with exactly the
// gather's float64 operations per entry, so the bits are the gather's.
//
//iotml:hotpath
func (c *DenseGramCache[T]) fold(p partition.Partition, combiner Combiner, od []float64, sc *BlockScratch[*linalg.Dense[T]]) {
	n, k := len(c.x), p.NumBlocks()
	for i := 0; i < n; i++ {
		initRow(od[i*n+i:(i+1)*n], combiner)
	}
	w := 1 / float64(k)
	for b := 0; b < k; b++ {
		sc.load(p, b)
		sc.buf = linalg.Reshape(sc.buf, n, n)
		c.gramInto(sc.buf, sc.keyBuf, sc.feats)
		for i := 0; i < n; i++ {
			accumulate(od[i*n+i:(i+1)*n], sc.buf.Data[i*n+i:(i+1)*n], combiner, w)
		}
	}
}
