// Block caching: sibling partitions in a lattice search share most of
// their feature blocks, so whatever a scoring backend derives per block —
// a dense Gram at float64 or float32, or a low-rank factor — is computed
// once per dataset and reused across candidates (and across the worker
// evaluators of a parallel search). BlockCache is that mechanism, written
// once: each backend (DenseGramCache at either width, ApproxGramCache)
// holds exactly one, supplies its build function and combines the blocks
// it looks up, nothing more.
//
// Retention is one policy for every value type: blocks are evicted oldest
// first (FIFO) once the block count exceeds the limit, so the newest block
// is always kept, and a negative limit retains nothing; nor does a dense
// Gram cache keep a block that only one candidate of a search needs, while
// the search flags it single-use (DenseGramCache.SetSingleUse). Eviction only
// drops the cache's own reference: values already handed out stay valid
// (they are shared read-only), and a re-request rebuilds the block through
// the same deterministic build, so eviction changes which blocks are
// resident, never a value.
//
// Determinism: build must be a pure function of the block's features (and
// of whatever the owning cache fixes at construction — dataset, factory,
// seed). Two workers racing on a cold block then compute identical values
// outside the lock; the first store wins and every racer receives the
// stored value.
package kernel

import (
	"strconv"
	"sync"

	"repro/internal/partition"
)

// DefaultGramCacheBlocks bounds how many distinct feature blocks a block
// cache retains before it evicts its oldest entries. An exhaustive cone
// over a free block of m features touches 2^m - 1 distinct blocks, so the
// default comfortably covers m <= 10 while keeping worst-case memory at
// DefaultGramCacheBlocks × n(n+1)/2 entries for an exact Gram cache (each
// block is its packed upper triangle).
const DefaultGramCacheBlocks = 1024

// BlockCache memoizes one value per feature block — keyed by the block's
// sorted 0-based feature indices — for one fixed dataset. It is safe for
// concurrent use; cached values are shared read-only.
type BlockCache[V any] struct {
	build func(key []byte, feats []int) (V, error)
	// buildInto builds a block into dst (reshaped, or allocated when its
	// capacity is short) and must give build's value; singleUse flags the
	// blocks Blocks builds that way. Only the dense Gram caches set them
	// (DenseGramCache.SetSingleUse), and never while lookups run.
	buildInto func(dst V, feats []int) V
	singleUse BlockSet
	// recycle, when set, hands a value's storage back for reuse (Clear,
	// and a racing build whose value lost the store).
	recycle func(V)
	size    func(V) int64
	limit   int

	mu    sync.RWMutex
	bytes int64
	// order is the insertion order of m's keys, for FIFO eviction.
	order []string
	m     map[string]V
}

// NewBlockCache returns a cache that builds missing blocks with build and
// accounts each stored value at size(v) bytes. limit bounds the number of
// retained blocks: 0 selects DefaultGramCacheBlocks, negative disables
// retention (every lookup rebuilds — useful only for measuring the cache's
// win, or to cap memory at one block). build receives the block's canonical
// key, valid only for the call (it may be the caller's scratch), and a
// private copy of the features, which it may retain.
func NewBlockCache[V any](limit int, size func(V) int64, build func(key []byte, feats []int) (V, error)) *BlockCache[V] {
	if limit == 0 {
		limit = DefaultGramCacheBlocks
	}
	return &BlockCache[V]{build: build, size: size, limit: limit, m: map[string]V{}}
}

// Len reports how many blocks are currently cached.
func (c *BlockCache[V]) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Retains reports whether the cache keeps built blocks. A cache that does
// not (negative limit) hands every caller a freshly built value of its
// own, which the caller may then mutate.
func (c *BlockCache[V]) Retains() bool { return c.limit > 0 }

// Bytes reports the total size of the cached values in bytes.
func (c *BlockCache[V]) Bytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// Clear drops every retained block, as a new cache holds none, and hands
// the storage of the dense and low-rank caches' blocks to linalg's
// recycler: values handed out before Clear must not be read after it. A
// later lookup rebuilds its block by the same deterministic build, so
// clearing changes residency, never a value. Only the cache's owner may
// clear it, once no lookup is under way and nothing reads its values.
func (c *BlockCache[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recycle != nil {
		for _, k := range c.order {
			c.recycle(c.m[k])
		}
	}
	clear(c.m)
	c.order, c.bytes = nil, 0
}

// Block returns the value of the block on the given sorted 0-based feature
// indices, building and caching it on first use. The returned value is
// shared and must not be mutated, unless the cache does not retain blocks
// (see Retains).
func (c *BlockCache[V]) Block(feats []int) (V, error) {
	return c.lookup(appendBlockKey(nil, feats), feats)
}

// lookup is Block keyed by a caller-owned byte fingerprint: the hit path
// converts key with the compiler's no-alloc map[string] byte-slice lookup,
// so a warm lookup allocates nothing; the key string is materialized only
// when a newly built block is stored.
func (c *BlockCache[V]) lookup(key []byte, feats []int) (V, error) {
	if v, ok := c.cached(key); ok {
		return v, nil
	}
	return c.store(key, feats)
}

// cached returns the stored value of the block keyed key, if any.
func (c *BlockCache[V]) cached(key []byte) (V, bool) {
	c.mu.RLock()
	v, ok := c.m[string(key)]
	c.mu.RUnlock()
	return v, ok
}

// store builds the block keyed key and stores it (retention permitting),
// or returns the value a racing caller stored first.
func (c *BlockCache[V]) store(key []byte, feats []int) (V, error) {
	// Build outside the lock on a private copy: feats may be a caller's
	// reused scratch, and builds (block-kernel factories) retain it.
	v, err := c.build(key, append([]int(nil), feats...))
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	if prev, ok := c.m[string(key)]; ok {
		// A racing build stored first; this copy was never handed out.
		if c.recycle != nil {
			c.recycle(v)
		}
		v = prev
	} else if c.limit > 0 {
		ks := string(key)
		c.m[ks] = v
		c.order = append(c.order, ks)
		c.bytes += c.size(v)
		// FIFO eviction; limit >= 1 here, so the new block stays.
		for len(c.m) > c.limit {
			old := c.order[0]
			c.order = c.order[1:]
			c.bytes -= c.size(c.m[old])
			delete(c.m, old)
		}
	}
	c.mu.Unlock()
	return v, nil
}

// BlockScratch holds the reusable per-caller buffers of Blocks (feature
// list, block key, and the gathered block values), plus buf, the one
// packed block a retention-disabled DenseGramCache builds into during
// float64 assembly, and row, the float64 row accumulator of float32
// assembly, and singleBufs, the buffers Blocks builds a cache's single-use
// blocks into (DenseGramCache.SetSingleUse): one per single-use block a
// candidate holds, reused from candidate to candidate. The zero value is ready; a
// scratch belongs to one goroutine — each worker evaluator of a parallel
// search owns its own while sharing the concurrency-safe cache.
type BlockScratch[V any] struct {
	feats      []int
	keyBuf     []byte
	vals       []V
	buf        V
	row        []float64
	singleBufs []V
}

// Blocks looks up the value of every block of p, in partition.Blocks()
// order (block index ascending, elements ascending), building missing
// blocks. A missing block the cache flags single-use
// (DenseGramCache.SetSingleUse) is built into one of sc's own buffers
// instead: it is neither allocated nor stored, so it costs the cache
// nothing, and the value is the one a stored build gives. A flagged block
// already cached is returned as stored. With no flags set, sc's single-use
// buffers are dropped, since nothing reads them. Block features and
// keys are re-derived into the caller-owned scratch by an RGS scan, so once
// every block of p is cached, or built into a warm single-use buffer, the
// call allocates nothing. The returned slice aliases sc and is valid until
// its next use.
//
//iotml:hotpath
func (c *BlockCache[V]) Blocks(p partition.Partition, sc *BlockScratch[V]) ([]V, error) {
	sc.vals = sc.vals[:0]
	if c.singleUse == nil {
		sc.singleBufs = nil
	}
	single := 0 // single-use buffers taken so far
	for b := 0; b < p.NumBlocks(); b++ {
		sc.load(p, b)
		v, ok := c.cached(sc.keyBuf)
		_, flagged := c.singleUse[string(sc.keyBuf)]
		switch {
		case ok:
		case flagged:
			// The kernel built from sc.feats lives only for this build, so
			// it needs no private copy.
			if single == len(sc.singleBufs) {
				var zero V
				//iotml:allow hotpathalloc -- grows once per single-use block of one candidate, never in steady state
				sc.singleBufs = append(sc.singleBufs, zero)
			}
			v = c.buildInto(sc.singleBufs[single], sc.feats)
			sc.singleBufs[single] = v
			single++
		default:
			var err error
			if v, err = c.store(sc.keyBuf, sc.feats); err != nil {
				return nil, err
			}
		}
		sc.vals = append(sc.vals, v)
	}
	return sc.vals, nil
}

// load re-derives the sorted 0-based features of block b of p, and the
// block's key, into sc.feats and sc.keyBuf by an RGS scan.
//
//iotml:hotpath
func (sc *BlockScratch[V]) load(p partition.Partition, b int) {
	d := p.N()
	sc.feats = sc.feats[:0]
	for e := 1; e <= d; e++ {
		if p.BlockOf(e) == b {
			sc.feats = append(sc.feats, e-1)
		}
	}
	sc.keyBuf = appendBlockKey(sc.keyBuf[:0], sc.feats)
}

// appendBlockKey appends the canonical fingerprint of a block — its sorted
// 0-based feature indices, comma-separated — to buf. Blocks coming from
// partition.Blocks() (or the RGS scan of Blocks) are already sorted, so the
// key is canonical without re-sorting.
func appendBlockKey(buf []byte, feats []int) []byte {
	for i, f := range feats {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(f), 10)
	}
	return buf
}

// BlockSet is a read-only set of feature blocks, keyed as the block caches
// key them; goroutines may share one.
type BlockSet map[string]struct{}

// SingleUseBlocks returns the blocks that exactly one distinct partition of
// cands contains (a repeated partition counts once, as a search's score
// cache scores it once). A search that holds its whole candidate list
// hands the set to its candidate cache (DenseGramCache.SetSingleUse), so
// the blocks no second candidate reads are not kept.
func SingleUseBlocks(cands []partition.Partition) BlockSet {
	// Per distinct block: the first candidate containing it, and whether a
	// different candidate contains it too. Comparing against the first
	// candidate (cheap, allocation-free) stands in for a set of candidate
	// keys, so only the distinct blocks allocate.
	at := map[string]int{} // block key → index into keys, first, reused
	var keys []string
	var first []int
	var reused []bool
	var sc BlockScratch[struct{}]
	for c, p := range cands {
		for b := 0; b < p.NumBlocks(); b++ {
			sc.load(p, b)
			i, ok := at[string(sc.keyBuf)]
			switch {
			case !ok:
				at[string(sc.keyBuf)] = len(keys)
				keys = append(keys, string(sc.keyBuf))
				first = append(first, c)
				reused = append(reused, false)
			case !reused[i] && !p.Equal(cands[first[i]]):
				reused[i] = true
			}
		}
	}
	set := BlockSet{}
	for i, k := range keys {
		if !reused[i] {
			set[k] = struct{}{}
		}
	}
	return set
}
