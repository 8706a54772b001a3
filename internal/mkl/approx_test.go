package mkl

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/partition"
)

// At full rank (rank = n) the Nyström backend must reproduce the exact
// evaluator's scores to within the 1e-9 reconstruction budget, for both
// objectives, across seeds — the evaluator-level face of the exactness
// contract.
func TestApproxFullRankScoresMatchExact(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d := smallFacetData(60, seed)
		seedPart, err := TwoBlockSeed(d.D(), []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{KernelAlignment, CVAccuracy} {
			exact, err := NewEvaluator(d, Config{Objective: obj, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			approx, err := NewEvaluator(d, Config{Objective: obj, Seed: seed, Backend: engine.Nystrom(d.N())})
			if err != nil {
				t.Fatal(err)
			}
			freeBlock, freeElems := freeBlockOf(seedPart)
			for _, q := range partition.All(len(freeElems))[:20] {
				p := coneToFull(seedPart, freeBlock, freeElems, q)
				we, err := exact.Score(p)
				if err != nil {
					t.Fatal(err)
				}
				wa, err := approx.Score(p)
				if err != nil {
					t.Fatal(err)
				}
				tol := 1e-6
				if obj == CVAccuracy {
					// Accuracy is discrete; full-rank primal ridge scores
					// equal the dual scores to ~1e-9, so predictions — and
					// the fold accuracies — must agree exactly.
					tol = 0
				}
				if math.Abs(we-wa) > tol {
					t.Fatalf("seed %d obj %v partition %v: exact %v vs approx %v", seed, obj, p, we, wa)
				}
			}
		}
	}
}

// Approximate scores must be bit-identical at every worker count: the
// factor draws depend only on (seed, block), and the parallel reduction is
// canonical.
func TestApproxParallelDeterministicAcrossWorkers(t *testing.T) {
	d := smallFacetData(50, 5)
	seedPart, err := TwoBlockSeed(d.D(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []engine.Backend{engine.Nystrom(16), engine.RFF(16)} {
		var ref *Result
		for _, workers := range []int{1, 2, 8} {
			e, err := NewEvaluator(d, Config{Seed: 7, Backend: backend, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ExhaustiveCone(e, seedPart)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			if !res.Best.Equal(ref.Best) || res.Score != ref.Score {
				t.Fatalf("backend %v workers %d: best %v score %v, want %v score %v (bitwise)",
					backend, workers, res.Best, res.Score, ref.Best, ref.Score)
			}
			if len(res.Trace) != len(ref.Trace) {
				t.Fatalf("backend %v workers %d: trace length %d, want %d", backend, workers, len(res.Trace), len(ref.Trace))
			}
			for i := range ref.Trace {
				if !res.Trace[i].Partition.Equal(ref.Trace[i].Partition) || res.Trace[i].Score != ref.Trace[i].Score {
					t.Fatalf("backend %v workers %d: trace[%d] diverged", backend, workers, i)
				}
			}
		}
	}
}

// BudgetedSearch with a healthy rank must select the same partition as the
// exact exhaustive search, report the exact score for it, and account for
// the evaluations of both phases.
func TestBudgetedSearchAgreesWithExact(t *testing.T) {
	d := smallFacetData(60, 9)
	seedPart, err := TwoBlockSeed(d.D(), []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	exactEval, err := NewEvaluator(d, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExhaustiveCone(exactEval, seedPart)
	if err != nil {
		t.Fatal(err)
	}
	approxEval, err := NewEvaluator(d, Config{Seed: 3, Backend: engine.Nystrom(32)})
	if err != nil {
		t.Fatal(err)
	}
	rescoreEval, err := NewEvaluator(d, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := BudgetedSearch(approxEval, rescoreEval, seedPart, func(e *Evaluator, s partition.Partition) (*Result, error) {
		return ExhaustiveCone(e, s)
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Best.Equal(want.Best) {
		t.Fatalf("budgeted best %v, want exact best %v", got.Best, want.Best)
	}
	if got.Score != want.Score {
		t.Fatalf("budgeted score %v, want exact score %v", got.Score, want.Score)
	}
	if got.Evaluations <= 8 || got.Evaluations > want.Evaluations+8 {
		t.Fatalf("budgeted evaluations = %d (approx lattice + <=8 exact), exact-only = %d", got.Evaluations, want.Evaluations)
	}
	if len(got.Trace) > 8 {
		t.Fatalf("exact re-score trace has %d entries, want <= topK", len(got.Trace))
	}
}

// Incompatible configurations must fail construction loudly.
func TestApproxConfigValidation(t *testing.T) {
	d := smallFacetData(20, 1)
	if _, err := NewEvaluator(d, Config{Backend: engine.RFF(0), Combiner: kernel.CombineProduct}); err == nil || !strings.Contains(err.Error(), "CombineSum") {
		t.Fatalf("product + rff: err = %v, want CombineSum-only error", err)
	}
}

// Non-primal trainers (SVM) still score under the approximate modes via the
// materialized K̂ = F·Fᵀ fallback, and at full rank track the exact score.
func TestApproxNonRidgeTrainerMaterializes(t *testing.T) {
	d := smallFacetData(40, 4)
	p := partition.Coarsest(d.D())
	exact, err := NewEvaluator(d, Config{Trainer: kernelmachine.SVM{C: 1}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := NewEvaluator(d, Config{Trainer: kernelmachine.SVM{C: 1}, Seed: 2, Backend: engine.Nystrom(d.N())})
	if err != nil {
		t.Fatal(err)
	}
	we, err := exact.Score(p)
	if err != nil {
		t.Fatal(err)
	}
	wa, err := approx.Score(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(we-wa) > 0.051 {
		t.Fatalf("SVM approx score %v vs exact %v", wa, we)
	}
}
