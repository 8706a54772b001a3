package mkl

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/kernel"
	"repro/internal/parsearch"
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
	return e.beginSearch().scan(den.Chain, rule)
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
	r := e.beginSearch()
	ordered, err := r.alignmentOrder(freeElems)
	if err != nil {
		return &Result{Score: -1}, err
	}
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
	return r.scan(cands, BestOfChain)
}

// alignmentOrder ranks the given 1-based features by decreasing centered
// kernel-target alignment of their singleton kernels (stable).
func (r *searchRun) alignmentOrder(feats []int) ([]int, error) {
	m := len(feats)
	ordered := append([]int(nil), feats...)
	if m <= 1 {
		return ordered, nil
	}
	aligns, err := r.alignments(feats)
	if err != nil {
		return nil, err
	}
	for i := 1; i < m; i++ {
		for j := i; j > 0 && aligns[j] > aligns[j-1]; j-- {
			aligns[j], aligns[j-1] = aligns[j-1], aligns[j]
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	return ordered, nil
}

// alignments returns the singleton alignment of every given feature, at
// the feature's index. The singletons are scored by the in-process pool
// the search then sweeps with, each worker writing its own feature's
// index, so the values are the same at every worker count; a one-worker
// pool, or a search on an attached scorer, scores them one after another
// on the evaluator itself. The error is the bound context's, when it is
// done before every singleton is scored.
func (r *searchRun) alignments(feats []int) ([]float64, error) {
	workers := []*Evaluator{r.e}
	if p, ok := r.sc.(*pool); ok {
		workers = p.workers
	}
	aligns := make([]float64, len(feats))
	err := parsearch.Do(r.e.searchCtx(), len(feats), len(workers), func(w, i int) error {
		aligns[i] = singletonAlignment(workers[w], feats[i])
		return nil
	})
	return aligns, err
}

// singletonAlignment returns the centered kernel-target alignment of the
// single-feature kernel for 1-based feature f. The singleton block Gram
// comes from the evaluator's exact block cache and is only read, so a
// retained block is shared as it is.
func singletonAlignment(e *Evaluator, f int) float64 {
	if e.approxCache != nil {
		// Approximate modes rank features on their cached singleton block
		// factor — the same factors the candidate scores reuse. On a factor
		// error (degenerate block) fall through to the exact block.
		if bf, err := e.approxCache.Block([]int{f - 1}); err == nil {
			return e.alignmentFromFactor(bf)
		}
	}
	g, _ := e.gramCache.Block([]int{f - 1}) // exact builds never fail
	e.d64.upper = g.UpperRows(e.d64.upper)
	return kernel.CenteredAlignment(e.d64.upper, e.data.Y)
}
