// The dense backends of the block cache (see blockcache.go): each block's
// Gram matrix is built once — vectorized over the block's columns, or
// pairwise for a block kernel without a block formula — and candidates
// combine the cached blocks into a full Gram. A block is symmetric, so it
// is built and kept as its upper triangle alone (linalg.Packed, n(n+1)/2
// entries), which is all that assembly reads. One implementation serves
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

// DenseGramCache memoizes per-block Gram matrices, packed at width T, for
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
// over the block's columns — two workers racing on a cold block compute
// identical matrices and the first store wins — and assembly
// accumulates in float64 in partition-block order, so assembled Grams (and
// therefore scores) are bit-identical at every worker count, at both
// widths.
type DenseGramCache[T linalg.Float] struct {
	*BlockCache[*linalg.Packed[T]]
	x       [][]float64
	factory BlockKernelFactory
}

// BlockGramCache is the exact float64 block-Gram cache.
type BlockGramCache = DenseGramCache[float64]

// AssemblyScratch is the per-caller scratch of the float64
// GramForPartitionScratch.
type AssemblyScratch = BlockScratch[*linalg.Packed[float64]]

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
	c.BlockCache = NewBlockCache(limit, packedBytes[T], c.buildGram)
	c.BlockCache.buildInto = c.buildInto
	c.BlockCache.recycle = (*linalg.Packed[T]).Release
	return c
}

// packedBytes is the cache footprint of a packed block, n(n+1)/2 entries.
func packedBytes[T linalg.Float](g *linalg.Packed[T]) int64 {
	return int64(len(g.Data)) * int64(unsafe.Sizeof(T(0)))
}

// buildGram computes one block's Gram into a fresh matrix (see buildInto).
func (c *DenseGramCache[T]) buildGram(_ []byte, feats []int) (*linalg.Packed[T], error) {
	return c.buildInto(nil, feats), nil
}

// buildInto fills dst, reshaped to the packed n×n (drawn from linalg's
// recycler when nil or too small), with one block's Gram and returns it:
// the block formulas (blockGramInto) run over the block's contiguous
// columns, gathered (and rounded to T) once per build into a recycled
// buffer; a block kernel without a formula takes the scalar float64
// reference path, rounded once per entry. Every build of a block —
// stored, single-use or folded — runs here, so they all give the same
// bits.
func (c *DenseGramCache[T]) buildInto(dst *linalg.Packed[T], feats []int) *linalg.Packed[T] {
	dst = linalg.ReshapePacked(dst, len(c.x))
	var cols linalg.Dense[T]
	linalg.FromRowsColsInto(&cols, c.x, feats)
	base := c.factory(feats)
	if !blockGramInto(dst, base, &cols) {
		pairwiseGramInto(dst, Subspace{Base: base, Features: feats}, c.x)
	}
	cols.Release()
	return dst
}

// SetSingleUse flags the blocks of set as single-use for Blocks and the
// scratch assembly (GramForPartitionScratch): a flagged block that misses
// is built into the caller's scratch and not stored. A search that holds
// its whole candidate list sets it before its sweep and clears it (nil)
// after; set is read-only, and SetSingleUse must not run while lookups of
// c do.
func (c *DenseGramCache[T]) SetSingleUse(set BlockSet) { c.singleUse = set }

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
//
// The assembly's own block buffers go back to linalg's recycler before it
// returns.
func (c *DenseGramCache[T]) GramForPartition(p partition.Partition, combiner Combiner, out *linalg.Dense[T]) *linalg.Dense[T] {
	var sc BlockScratch[*linalg.Packed[T]]
	out = c.GramForPartitionScratch(p, combiner, out, &sc)
	ReleaseScratch(&sc)
	return out
}

// ReleaseScratch hands the storage of the packed buffers sc owns — the fold
// block and the single-use blocks, never the cached blocks it looked up —
// to linalg's recycler. sc stays ready for use: the next build into one
// of those buffers draws its storage again.
func ReleaseScratch[T linalg.Float](sc *BlockScratch[*linalg.Packed[T]]) {
	sc.buf.Release()
	for _, b := range sc.singleBufs {
		b.Release()
	}
}

// GramForPartitionScratch is GramForPartition with caller-owned scratch:
// once every block of p is cached, or flagged single-use (SetSingleUse) and
// built into a warm buffer of sc, assembling a candidate's
// Gram allocates nothing of its own, only what the factory may allocate
// for a kernel it returns (see BlockCache.Blocks). It is the
// per-candidate path of the mkl evaluators.
//
// Only the upper triangle is summed, one row segment [i, n) at a time
// across every gathered block's packed row (in place at float64, in sc's
// float64 row at float32), then mirrored once: the blocks store nothing
// else. With retention disabled the float64 assembly instead folds the
// blocks into out one at a time (fold), so it holds out plus one packed
// block, whatever the number of blocks; the float32 one still gathers,
// since each entry is rounded once.
//
//iotml:hotpath
func (c *DenseGramCache[T]) GramForPartitionScratch(p partition.Partition, combiner Combiner, out *linalg.Dense[T], sc *BlockScratch[*linalg.Packed[T]]) *linalg.Dense[T] {
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
			accumulate(acc, g.Row(i), combiner, w)
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
// the sum. With accumulate it is the one combine step, shared by Gram
// assembly (one row segment at a time) and bound Sum/Product cross fills
// (one whole block at a time).
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
// each block of p, in partition-block order, is built into sc's one packed
// block buffer and accumulated before the next is built, with exactly the
// gather's float64 operations per entry, so the bits are the gather's.
//
//iotml:hotpath
func (c *DenseGramCache[T]) fold(p partition.Partition, combiner Combiner, od []float64, sc *BlockScratch[*linalg.Packed[T]]) {
	n, k := len(c.x), p.NumBlocks()
	for i := 0; i < n; i++ {
		initRow(od[i*n+i:(i+1)*n], combiner)
	}
	w := 1 / float64(k)
	for b := 0; b < k; b++ {
		sc.load(p, b)
		sc.buf = c.buildInto(sc.buf, sc.feats)
		for i := 0; i < n; i++ {
			accumulate(od[i*n+i:(i+1)*n], sc.buf.Row(i), combiner, w)
		}
	}
}
