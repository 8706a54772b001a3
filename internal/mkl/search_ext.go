package mkl

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/partition"
)

// DendrogramSearch walks the data-adaptive chain produced by hierarchical
// clustering of the features (correlation distance, ref [8]'s
// lattice-based view of clustering: a dendrogram is a saturated chain in
// Π_d). Like ChainSearch, it costs exactly d evaluations with the
// BestOfChain rule.
//
// Where ChainSearch's chain is canonical (reordered by single-feature
// alignment), the dendrogram chain merges features bottom-up by mutual
// similarity — correlated facets coalesce into blocks before unrelated
// features join, so the chain passes through partitions close to the true
// facet structure.
func DendrogramSearch(e *Evaluator, link cluster.Linkage, rule AscentRule) (*Result, error) {
	den, err := cluster.FeatureDendrogram(e.data.X, link)
	if err != nil {
		return nil, fmt.Errorf("mkl: feature clustering: %w", err)
	}
	return scanCandidates(e, den.Chain, rule)
}

// ChainBeamSearch walks `beam` distinct full-span chains through the cone
// of the seed's largest block and returns the best configuration across
// all of them — a budgeted middle ground between the single chain (beam=1,
// the paper's linear strategy) and the exhaustive cone. Cost is at most
// beam × m evaluations.
//
// The b-th chain uses a rotation of the alignment-ordered features, so the
// beams traverse genuinely different merge schedules.
func ChainBeamSearch(e *Evaluator, seed partition.Partition, beam int) (*Result, error) {
	if beam < 1 {
		beam = 1
	}
	freeBlock, freeElems := freeBlockOf(seed)
	m := len(freeElems)
	if beam > m {
		beam = m
	}
	ordered := alignmentOrder(e, freeElems)
	chain := principalChain(m)
	cands := make([]partition.Partition, 0, beam*m)
	for b := 0; b < beam; b++ {
		// Rotate the ordering so each beam merges a different tail first.
		rot := make([]int, m)
		for i := range rot {
			rot[i] = ordered[(i+b)%m]
		}
		for _, q := range chain {
			cands = append(cands, coneToFull(seed, freeBlock, rot, q))
		}
	}
	return scanCandidates(e, cands, BestOfChain)
}

// alignmentOrder ranks the given 1-based features by decreasing centered
// kernel-target alignment of their singleton kernels (stable).
func alignmentOrder(e *Evaluator, feats []int) []int {
	m := len(feats)
	ordered := append([]int(nil), feats...)
	if m <= 1 {
		return ordered
	}
	aligns := make([]float64, m)
	for i, f := range feats {
		aligns[i] = singletonAlignment(e, f)
	}
	for i := 1; i < m; i++ {
		for j := i; j > 0 && aligns[j] > aligns[j-1]; j-- {
			aligns[j], aligns[j-1] = aligns[j-1], aligns[j]
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	return ordered
}

// singletonAlignment returns the centered kernel-target alignment of the
// single-feature kernel for 1-based feature f. The singleton block Gram
// comes from the evaluator's Gram-block cache when one is enabled (copied
// into the evaluator's reusable centering scratch before centering, since
// cached matrices are shared read-only); without a cache it goes through
// the vectorized path over the dataset's extracted column block (pairwise
// Eval for a block kernel without one).
func singletonAlignment(e *Evaluator, f int) float64 {
	if e.approxCache != nil {
		// Approximate modes rank features on their cached singleton block
		// factor — the same factors the candidate scores reuse. On a factor
		// error (degenerate block) fall through to the uncached exact path.
		if bf, err := e.approxCache.Block([]int{f - 1}); err == nil {
			return e.alignmentFromFactor(bf)
		}
	}
	var g *linalg.Matrix
	if e.gramCache != nil {
		shared, _ := e.gramCache.Block([]int{f - 1}) // exact builds never fail
		e.d64.center = linalg.Reshape(e.d64.center, shared.Rows, shared.Cols)
		copy(e.d64.center.Data, shared.Data)
		g = e.d64.center
	} else {
		feats := []int{f - 1}
		base := e.cfg.Factory(feats)
		var ok bool
		if g, ok = kernel.GramIntoMatrix(nil, base, e.data.BlockMatrix(feats)); !ok {
			g = kernel.GramPairwise(kernel.Subspace{Base: base, Features: feats}, e.data.X)
		}
	}
	kernel.Center(g)
	return kernel.Alignment(g, e.data.Y)
}
