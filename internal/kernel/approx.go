// Approximate Gram engine: per-feature-block low-rank factors (Nyström
// landmarks, random Fourier features for the RBF family), held in the same
// BlockCache as the exact backend's block Grams (see blockcache.go for the
// one retention policy). A candidate's approximate Gram K̂ = Σ_b w·F_b·F_bᵀ
// is never materialized — FactorForPartitionScratch assembles the
// concatenated factor [√w·F_1 … √w·F_k] (n×Σr_b) and downstream paths
// train on it directly (primal ridge, alignment from the factor) or
// materialize F·Fᵀ once for learners without a primal form.
//
// Determinism contract: landmark indices and RFF frequencies for a block
// are drawn from a stream seeded by (cache seed, block fingerprint) alone —
// independent of evaluation order, worker count, eviction, and test
// shuffling — so the factor of a block is bit-identical wherever and
// whenever it is computed.
package kernel

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/linalg"
	"repro/internal/partition"
)

// ApproxKind selects the low-rank factorization family.
type ApproxKind int

const (
	// ApproxNystrom approximates each block Gram by m seeded landmark
	// columns: K̂ = C·(W+jitter·I)⁻¹·Cᵀ, exact up to jitter at m = n.
	ApproxNystrom ApproxKind = iota
	// ApproxRFF uses seeded random Fourier features for RBF blocks
	// (E[F·Fᵀ] = K, error O(1/√d)); non-RBF blocks fall back to Nyström,
	// which needs no shift-invariance.
	ApproxRFF
)

// DefaultApproxRank is the per-block rank (landmark count, or RFF feature
// count) selected when a caller passes rank <= 0.
const DefaultApproxRank = 64

// nystromJitterStart and nystromJitterMax bound the jitter-escalation retry
// of the landmark solve: W is singular whenever two landmark rows coincide,
// so the factorization starts at a jitter far below the 1e-9 exactness
// budget and multiplies by 100 until the Cholesky succeeds.
const (
	nystromJitterStart = 1e-10
	nystromJitterMax   = 1e-2
)

// FactorScratch is the per-caller scratch of FactorForPartitionScratch.
type FactorScratch = BlockScratch[*linalg.Matrix]

// ApproxGramCache memoizes per-block low-rank factors for one fixed dataset
// and block-kernel factory — the approximate twin of BlockGramCache, with
// the same BlockCache retention. It is safe for concurrent use; cached
// factors are shared read-only.
type ApproxGramCache struct {
	*BlockCache[*linalg.Matrix]
	x       [][]float64
	factory BlockKernelFactory
	kind    ApproxKind
	rank    int
	seed    int64
}

// NewApproxGramCache returns a factor cache over dataset rows x. rank is
// the per-block rank (<= 0 selects DefaultApproxRank; Nyström clamps it to
// n). seed drives the deterministic landmark/frequency draws. limit bounds
// the number of retained block factors exactly like NewBlockGramCache's
// limit (0 selects DefaultGramCacheBlocks, negative disables retention).
func NewApproxGramCache(x [][]float64, factory BlockKernelFactory, kind ApproxKind, rank int, seed int64, limit int) *ApproxGramCache {
	if rank <= 0 {
		rank = DefaultApproxRank
	}
	c := &ApproxGramCache{x: x, factory: factory, kind: kind, rank: rank, seed: seed}
	c.BlockCache = NewBlockCache(limit, factorBytes, c.buildFactor)
	c.BlockCache.recycle = (*linalg.Matrix).Release
	return c
}

// factorBytes is the cache footprint of a block factor.
func factorBytes(f *linalg.Matrix) int64 { return int64(len(f.Data)) * 8 }

// Rank returns the configured per-block rank.
func (c *ApproxGramCache) Rank() int { return c.rank }

// blockSeed derives the per-block RNG seed from the cache seed and the
// block's canonical fingerprint, so draws depend on the block identity
// alone — never on which worker or candidate touched it first.
func blockSeed(seed int64, key []byte) int64 {
	h := fnv.New64a()
	h.Write(key)
	return seed + int64(h.Sum64())
}

// buildFactor builds the factor F (n×r, F·Fᵀ ≈ K_block) of one block: RFF
// for RBF base kernels in ApproxRFF mode, seeded-landmark Nyström
// otherwise.
func (c *ApproxGramCache) buildFactor(key []byte, feats []int) (*linalg.Matrix, error) {
	base := c.factory(feats)
	xb := linalg.FromRowsCols[float64](c.x, feats)
	rng := rand.New(rand.NewSource(blockSeed(c.seed, key)))
	if c.kind == ApproxRFF {
		if r, ok := base.(RBF); ok {
			return rffFactor(xb, r.Gamma, c.rank, rng), nil
		}
	}
	return nystromFactor(base, xb, c.rank, rng)
}

// rffFactor draws dHalf = max(1, rank/2) frequencies w ~ N(0, 2γI) from rng
// (row-major draw order — part of the determinism contract) and maps the
// block through the cos/sin feature map, an n×2·dHalf factor.
func rffFactor(xb *linalg.Matrix, gamma float64, rank int, rng *rand.Rand) *linalg.Matrix {
	dHalf := rank / 2
	if dHalf < 1 {
		dHalf = 1
	}
	d := xb.Cols
	freq := linalg.NewMatrix(dHalf, d)
	sd := math.Sqrt(2 * gamma)
	for i := range freq.Data {
		freq.Data[i] = sd * rng.NormFloat64()
	}
	return linalg.RFFMapInto(nil, xb, freq, math.Sqrt(1/float64(dHalf)))
}

// nystromFactor selects min(rank, n) landmark rows from rng, evaluates the
// landmark cross-Gram C (n×m) and landmark Gram W (m×m) through the block
// kernel's vectorized path when available (pairwise Eval otherwise), and
// factors F = C·L⁻ᵀ with W+jitter·I = L·Lᵀ, escalating the jitter on
// near-singular W (duplicate landmark rows).
func nystromFactor(base Kernel, xb *linalg.Matrix, rank int, rng *rand.Rand) (*linalg.Matrix, error) {
	n := xb.Rows
	m := rank
	if m > n {
		m = n
	}
	if m < 1 {
		return nil, fmt.Errorf("kernel: nystrom factor of empty dataset")
	}
	landmarks := rng.Perm(n)[:m]
	sort.Ints(landmarks)
	xl := linalg.NewMatrix(m, xb.Cols)
	for i, r := range landmarks {
		copy(xl.Data[i*xl.Cols:(i+1)*xl.Cols], xb.Data[r*xb.Cols:(r+1)*xb.Cols])
	}
	cm := linalg.NewMatrix(n, m)
	wp := linalg.ReshapePacked[float64](nil, m)
	bound, fast := BindCross(base, xl)
	if fast {
		bound.Fill(cm, xb, new(CrossScratch))
		fast = blockGramInto(wp, base, xl)
	}
	if !fast {
		lr := matrixRows(xl)
		cm = CrossGramPairwise(base, matrixRows(xb), lr)
		pairwiseGramInto(wp, base, lr)
	}
	w := linalg.UnpackInto(nil, wp)
	var f *linalg.Matrix
	var err error
	for jitter := nystromJitterStart; jitter <= nystromJitterMax; jitter *= 100 {
		f, err = linalg.NystromFactorInto(f, cm, w, jitter)
		if err == nil {
			return f, nil
		}
	}
	return nil, fmt.Errorf("kernel: nystrom landmark Gram stayed singular up to jitter %g: %w", nystromJitterMax, err)
}

// matrixRows returns the rows of m as slices over its storage, the shape
// the pairwise Gram loops take.
func matrixRows(m *linalg.Matrix) [][]float64 {
	rows := make([][]float64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// FactorForPartitionScratch assembles F = [√w·F_1 … √w·F_k] (n×Σr_b, with
// w = 1/k matching the sum combiner's uniform block weights) from the
// cached per-block factors, so F·Fᵀ = Σ_b w·F_b·F_bᵀ approximates the
// configuration's Gram matrix. It writes into out (reallocated if nil or
// mis-sized) and returns it; block features and cache keys are re-derived
// into the caller-owned scratch by BlockCache.Blocks, so a warm candidate
// assembles with no allocation beyond the output resize.
//
// Only CombineSum has this concatenation structure; CombineProduct is
// rejected (an elementwise product of low-rank Grams has no low-rank
// factor).
func (c *ApproxGramCache) FactorForPartitionScratch(p partition.Partition, combiner Combiner, out *linalg.Matrix, sc *FactorScratch) (*linalg.Matrix, error) {
	if combiner == CombineProduct {
		return nil, fmt.Errorf("kernel: approximate Gram engine supports CombineSum only (a product of low-rank Grams has no low-rank factor)")
	}
	n := len(c.x)
	factors, err := c.Blocks(p, sc)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, f := range factors {
		total += f.Cols
	}
	out = linalg.Reshape(out, n, total)
	w := math.Sqrt(1 / float64(len(factors)))
	off := 0
	for _, f := range factors {
		r := f.Cols
		for i := 0; i < n; i++ {
			src := f.Data[i*r : (i+1)*r]
			dst := out.Data[i*total+off : i*total+off+r]
			for j, v := range src {
				dst[j] = w * v
			}
		}
		off += r
	}
	return out, nil
}
