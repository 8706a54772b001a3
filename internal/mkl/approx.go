// Approximate Gram scoring and the budgeted search mode.
//
// Under the Nyström and RFF backends the evaluator never assembles an n×n Gram per
// candidate: kernel.ApproxGramCache hands it the concatenated low-rank
// factor F (n×R, with F·Fᵀ ≈ K and R = Σ per-block ranks), and the
// objectives run directly on the factor — primal ridge in O(n·R² + R³) per
// fold and alignment in O(n·R²), versus the exact path's O(n²) assembly
// plus O(n³) solves. Learners without a primal form materialize K̂ = F·Fᵀ
// once per candidate and fall back to the standard CV machinery.
//
// BudgetedSearch composes two evaluators: the whole lattice is scored with
// the cheap approximation, then only the top-K surviving candidates are
// re-scored on the exact evaluator, which also decides the final selection.
package mkl

import (
	"math"
	"sort"

	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/partition"
)

// DefaultBudgetTopK is the survivor count used when a budgeted search is
// requested without an explicit K.
const DefaultBudgetTopK = 8

// scoreApprox is the cache-miss scoring body under an approximate backend:
// assemble the candidate's concatenated factor from the shared block-factor
// cache, then run the objective on it.
func (e *Evaluator) scoreApprox(p partition.Partition) (float64, error) {
	f, err := e.approxCache.FactorForPartitionScratch(p, e.cfg.Combiner, e.factorBuf, &e.d64.asm)
	if err != nil {
		return 0, err
	}
	e.factorBuf = f
	switch e.cfg.Objective {
	case KernelAlignment:
		return e.alignmentFromFactor(f), nil
	default:
		if r, ok := e.cfg.Trainer.(kernelmachine.Ridge); ok {
			return e.cvAccuracyLowRank(f, r)
		}
		// No primal form (SVM, perceptron): materialize K̂ = F·Fᵀ once and
		// reuse the standard CV machinery on the approximate Gram.
		e.d64.gram = linalg.SyrkInto(e.d64.gram, f)
		return e.cvAccuracy(e.d64.gram)
	}
}

// alignmentFromFactor computes the centered kernel-target alignment of
// K̂ = F·Fᵀ without materializing K̂: centering K̂ equals centering the
// columns of F (K̃ = F̃·F̃ᵀ with F̃ = F − 1·mean), ⟨K̃, yyᵀ⟩ = ‖F̃ᵀy‖², and
// ‖K̃‖_F = ‖F̃ᵀF̃‖_F — so the whole objective costs O(n·R²) for an n×R
// factor.
func (e *Evaluator) alignmentFromFactor(f *linalg.Matrix) float64 {
	n, r := f.Rows, f.Cols
	e.lrCentered = linalg.Reshape(e.lrCentered, n, r)
	copy(e.lrCentered.Data, f.Data)
	// Column-center in place, with lrWork as the column-mean buffer.
	if cap(e.lrWork) < r {
		e.lrWork = linalg.NewVector(r)
	}
	mean := e.lrWork[:r]
	for j := range mean {
		mean[j] = 0
	}
	for i := 0; i < n; i++ {
		row := e.lrCentered.Data[i*r : (i+1)*r]
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	for i := 0; i < n; i++ {
		row := e.lrCentered.Data[i*r : (i+1)*r]
		for j := range row {
			row[j] -= mean[j]
		}
	}
	// ⟨K̃, yyᵀ⟩ = ‖F̃ᵀy‖².
	e.lrRhs = linalg.MulTVecInto(e.lrRhs, e.lrCentered, e.labelVec())
	kyy := 0.0
	for _, v := range e.lrRhs {
		kyy += v * v
	}
	// ‖K̃‖_F = ‖F̃ᵀF̃‖_F (same nonzero singular values, squared).
	e.lrA = linalg.SyrkTInto(e.lrA, e.lrCentered)
	kk := 0.0
	for _, v := range e.lrA.Data {
		kk += v * v
	}
	if kk == 0 {
		return 0
	}
	// Mirrors kernel.CenteredAlignment: ⟨K̃,yyᵀ⟩ / (‖K̃‖_F · ‖yyᵀ‖_F) with
	// ‖yyᵀ‖_F = n for ±1 labels.
	return kyy / (math.Sqrt(kk) * float64(n))
}

// labelVec returns the dataset labels as a float vector, built once per
// evaluator.
func (e *Evaluator) labelVec() linalg.Vector {
	if e.lrY == nil {
		e.lrY = linalg.NewVector(e.data.N())
		for i, v := range e.data.Y {
			e.lrY[i] = float64(v)
		}
	}
	return e.lrY
}

// cvAccuracyLowRank runs the evaluator's k-fold CV with a primal ridge on
// the factor rows: per fold, β = (F_trᵀF_tr + λ'I)⁻¹ F_trᵀy with the same
// regularization schedule as kernelmachine.Ridge.Train (λ' = λ·n_tr/10,
// heavier 1 + λ·n_tr fallback), and test scores F_te·β — algebraically the
// kernel ridge scores on K̂ = F·Fᵀ (push-through identity), at
// O(n_tr·R² + R³) per fold instead of O(n_tr³). The folds come from the
// same loop and plan as the exact paths (cvFolds), so approximate and
// exact scores are comparable fold-for-fold.
func (e *Evaluator) cvAccuracyLowRank(f *linalg.Matrix, ridge kernelmachine.Ridge) (float64, error) {
	for len(e.lrCols) < f.Cols {
		e.lrCols = append(e.lrCols, len(e.lrCols))
	}
	cols := e.lrCols[:f.Cols]
	y := e.labelVec()
	return e.cvFolds(func(_ int, train, test []int) ([]float64, error) {
		e.d64.sub = linalg.GatherInto(e.d64.sub, f, train, cols)
		if cap(e.lrRhs) < len(train) {
			e.lrRhs = linalg.NewVector(len(train))
		}
		ytr := e.lrRhs[:len(train)]
		for i, a := range train {
			ytr[i] = y[a]
		}
		beta, err := e.lowRankRidgeSolve(e.d64.sub, ytr, ridge)
		if err != nil {
			return nil, err
		}
		e.d64.cross = linalg.GatherInto(e.d64.cross, f, test, cols)
		e.scoreBuf = linalg.MulVecInto(e.scoreBuf, e.d64.cross, beta)
		return e.scoreBuf, nil
	})
}

// lowRankRidgeSolve solves (FᵀF + λ'I)β = Fᵀy in the evaluator's ridge
// scratch, under ridge's regularization and fallback schedule
// (kernelmachine.RidgeScratch.Solve) scaled by the n_tr training rows.
// Fᵀy goes into lrWork.
func (e *Evaluator) lowRankRidgeSolve(f *linalg.Matrix, y linalg.Vector, ridge kernelmachine.Ridge) (linalg.Vector, error) {
	e.lrA = linalg.SyrkTInto(e.lrA, f)
	e.lrWork = linalg.MulTVecInto(e.lrWork, f, y)
	return e.d64.ridge.Solve(ridge, e.lrA, nil, e.lrWork, f.Rows)
}

// SearchFunc is a lattice-search strategy over one evaluator — the shape of
// ExhaustiveCone, GreedyRefine, or a ChainSearch closure over its rule, as
// consumed by BudgetedSearch.
type SearchFunc func(e *Evaluator, seed partition.Partition) (*Result, error)

// BudgetedSearch runs search on the approximate evaluator to score the
// whole lattice cheaply, then re-scores only the top-K distinct candidates
// (by approximate score, ties broken by first-evaluation order — canonical
// at every worker count) on the exact evaluator, which decides the final
// selection. The returned Result carries the exact scores and trace of the
// re-scoring phase; Evaluations sums both phases — the cost the budget
// actually paid.
//
// On error (including context cancellation) the partial result accumulated
// so far is returned alongside the error, matching every other strategy.
func BudgetedSearch(approx, exact *Evaluator, seed partition.Partition, search SearchFunc, topK int) (*Result, error) {
	if topK <= 0 {
		topK = DefaultBudgetTopK
	}
	ares, err := search(approx, seed)
	if err != nil {
		return ares, err
	}
	// Distinct candidates in first-evaluation order (the trace revisits
	// cache hits, e.g. a greedy climb re-scoring its incumbent).
	seen := make(map[string]bool, len(ares.Trace))
	cands := make([]Step, 0, len(ares.Trace))
	for _, st := range ares.Trace {
		k := st.Partition.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		cands = append(cands, st)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Score > cands[j].Score })
	if len(cands) > topK {
		cands = cands[:topK]
	}
	start := exact.Calls()
	res := &Result{Score: -1}
	for _, st := range cands {
		s, err := exact.Score(st.Partition)
		if err != nil {
			res.Evaluations = ares.Evaluations + exact.Calls() - start
			return res, err
		}
		exact.observe(res, st.Partition, s)
	}
	res.Evaluations = ares.Evaluations + exact.Calls() - start
	return res, nil
}
