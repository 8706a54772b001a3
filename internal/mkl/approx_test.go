package mkl

import (
	"context"
	"fmt"
	"math"
	"reflect"
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
	got, err := BudgetedSearch(approxEval, seedPart, func(e *Evaluator, s partition.Partition) (*Result, error) {
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

// TestBudgetedSearchRescoresLikeFloat64: the budgeted re-score runs on the
// approximate evaluator's own exact path, after its sweep has used the
// same scratch, and must give every survivor a fresh Float64 evaluator's
// score bit for bit. The exact scores stay out of the evaluator's score
// cache and counters, and a context cancelled during the re-score (before
// a survivor, or inside one) returns the partial result with ctx.Err().
func TestBudgetedSearchRescoresLikeFloat64(t *testing.T) {
	d := smallFacetData(60, 9)
	seedPart, err := TwoBlockSeed(d.D(), []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ridge", Config{}},
		{"alignment", Config{Objective: KernelAlignment}},
		{"svm", Config{Trainer: kernelmachine.SVM{C: 1, Seed: 2}}},
	} {
		for _, backend := range []engine.Backend{engine.Nystrom(16), engine.RFF(16)} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s/%v/P=%d", tc.name, backend, workers)
				cfg := tc.cfg
				cfg.Seed, cfg.Parallelism = 3, workers
				fresh, err := NewEvaluator(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Backend = backend
				e, err := NewEvaluator(d, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var sweep *Result
				var calls, evals int
				res, err := BudgetedSearch(e, seedPart, func(e *Evaluator, s partition.Partition) (*Result, error) {
					sweep, err = ExhaustiveCone(e, s)
					calls, evals = e.calls, e.evals
					return sweep, err
				}, 4)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Trace) != 4 || res.Evaluations != sweep.Evaluations+4 {
					t.Fatalf("%s: re-score trace %d steps, %d evaluations; want 4 and %d", name, len(res.Trace), res.Evaluations, sweep.Evaluations+4)
				}
				if e.calls != calls || e.evals != evals {
					t.Fatalf("%s: the re-score moved the counters: calls %d→%d, evals %d→%d", name, calls, e.calls, evals, e.evals)
				}
				approxScore := map[string]float64{}
				for _, st := range sweep.Trace {
					approxScore[st.Partition.Key()] = st.Score
				}
				for i, st := range res.Trace {
					want, err := fresh.Score(st.Partition)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(st.Score) != math.Float64bits(want) {
						t.Fatalf("%s: re-score %d of %v = %v, fresh Float64 evaluator %v", name, i, st.Partition, st.Score, want)
					}
					got, err := e.Score(st.Partition)
					if err != nil {
						t.Fatal(err)
					}
					if a := approxScore[st.Partition.Key()]; math.Float64bits(got) != math.Float64bits(a) {
						t.Fatalf("%s: Score(%v) after the re-score = %v, want the approximate %v", name, st.Partition, got, a)
					}
				}
			}
		}
	}

	// Cancellation: the sweep runs unbound, then the re-score phase gets a
	// context that lets `left` checks pass. Each CV-ridge survivor costs
	// three checks (one before it, one per pair of its four folds), so 3
	// cancels before the second survivor and 4 inside it. Both attempts
	// count, as an exact evaluator's Score calls did.
	for _, left := range []int{3, 4} {
		e, err := NewEvaluator(d, Config{Seed: 3, Parallelism: 1, Backend: engine.Nystrom(16)})
		if err != nil {
			t.Fatal(err)
		}
		var sweep *Result
		res, err := BudgetedSearch(e, seedPart, func(e *Evaluator, s partition.Partition) (*Result, error) {
			sweep, err = ExhaustiveCone(e, s)
			e.SetContext(&countdownCtx{Context: context.Background(), left: left})
			return sweep, err
		}, 4)
		if err != context.Canceled {
			t.Fatalf("left=%d: err = %v, want context.Canceled", left, err)
		}
		if res == nil || len(res.Trace) != 1 || !res.Best.Equal(res.Trace[0].Partition) {
			t.Fatalf("left=%d: partial result %+v, want the first survivor alone", left, res)
		}
		if want := sweep.Evaluations + left - 2; res.Evaluations != want {
			t.Fatalf("left=%d: partial evaluations %d, want %d", left, res.Evaluations, want)
		}
	}
}

// TestBudgetedSearchReleasesFactors: once the approximate sweep ends, the
// factor cache retains nothing through the exact re-score, and Score stays
// approximate, bit for bit: a swept partition keeps its score, and one the
// sweep never scored rebuilds its factors to a fresh twin evaluator's
// score.
func TestBudgetedSearchReleasesFactors(t *testing.T) {
	d := smallFacetData(60, 9)
	seedPart, err := TwoBlockSeed(d.D(), []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 3, Parallelism: 1, Backend: engine.Nystrom(16)}
	twin, err := NewEvaluator(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	outside := partition.Coarsest(d.D())
	want, err := twin.Score(outside)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sweep *Result
	if _, err := BudgetedSearch(e, seedPart, func(e *Evaluator, s partition.Partition) (*Result, error) {
		sweep, err = ExhaustiveCone(e, s)
		if e.approxCache.Bytes() == 0 {
			t.Fatal("the sweep retained no factors")
		}
		return sweep, err
	}, 4); err != nil {
		t.Fatal(err)
	}
	if n, b := e.approxCache.Len(), e.approxCache.Bytes(); n != 0 || b != 0 {
		t.Fatalf("after the budgeted search the factor cache retains %d blocks, %d bytes; want none", n, b)
	}
	if !reflect.ValueOf(e.factorAsm).IsZero() || (e.factorBuf != nil && e.factorBuf.Data != nil) {
		t.Fatal("the assembly scratch still holds factors")
	}
	for _, st := range sweep.Trace {
		if st.Partition.Equal(outside) {
			t.Fatalf("the sweep scored %v, which must be new to it", outside)
		}
		got, err := e.Score(st.Partition)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(st.Score) {
			t.Fatalf("Score(%v) after the search = %v, the sweep's %v", st.Partition, got, st.Score)
		}
	}
	got, err := e.Score(outside)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Score(%v) after the search = %v, a fresh approximate evaluator's %v", outside, got, want)
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

// A warm low-rank ridge score reuses the evaluator's scratch in every
// fold (the Fᵀy right-hand side included), so it allocates no more per
// Score than a warm exact one.
func TestApproxLowRankScoreAllocsMatchExact(t *testing.T) {
	d := smallFacetData(60, 1)
	p := d.ViewPartition()
	allocs := func(cfg Config) float64 {
		e, err := NewEvaluator(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Score(p); err != nil { // warm caches and scratch
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			e.ClearScoreCache()
			if _, err := e.Score(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	exact := allocs(Config{Objective: CVAccuracy, Seed: 1, Parallelism: 1})
	lowRank := allocs(Config{Objective: CVAccuracy, Seed: 1, Parallelism: 1, Backend: engine.Nystrom(16)})
	if lowRank > exact {
		t.Fatalf("low-rank CV score: %v allocs/op, exact: %v", lowRank, exact)
	}
}
