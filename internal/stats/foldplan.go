package stats

import "math/rand"

// FoldPlan is a precomputed k-fold CV split: the train/test index sets of
// every fold, which the CV fast path gathers fold Grams by. A lattice
// search evaluates one identical CV split per candidate configuration, so
// the plan is computed once per evaluator and replayed allocation-free for
// every candidate, instead of re-deriving the split (and reallocating its
// index sets) per evaluation.
type FoldPlan struct {
	// N and K are the item count and effective fold count (K is clamped to
	// N, matching KFold).
	N, K int
	// Trains[f] and Tests[f] are fold f's train and test index sets, in
	// exactly the order KFold emits them.
	Trains, Tests [][]int
}

// NewFoldPlan builds the plan for n items and k folds by calling KFold on
// the given generator, so the plan's index sets are identical — same values,
// same order, same rng consumption — to a direct KFold(n, k, rng) call.
func NewFoldPlan(n, k int, rng *rand.Rand) *FoldPlan {
	trains, tests := KFold(n, k, rng)
	return &FoldPlan{N: n, K: len(tests), Trains: trains, Tests: tests}
}

// GatherLabels returns per-fold label slices (out[f][i] = y[idx[f][i]]) for
// the given per-fold index sets — used once at plan-build time to fix the
// train and test label slices every CV evaluation shares.
func GatherLabels(y []int, idx [][]int) [][]int {
	out := make([][]int, len(idx))
	for f, ids := range idx {
		out[f] = make([]int, len(ids))
		for i, a := range ids {
			out[f][i] = y[a]
		}
	}
	return out
}
