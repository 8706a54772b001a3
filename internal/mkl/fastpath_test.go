package mkl

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/partition"
	"repro/internal/stats"
)

// refTrainer hides a trainer's ScratchTrainer implementation behind the
// plain Trainer interface, so the evaluator's fold body trains each fold
// through the allocating Train instead of TrainScratch.
type refTrainer struct{ kernelmachine.Trainer }

// referenceCV is the reference k-fold CV every evaluator score must
// reproduce bit for bit: the split re-derived by stats.KFold from the
// evaluator's seed, fold Grams and labels gathered element by element,
// plain Train on each fold, and allocating Scores.
func referenceCV(t *testing.T, d *dataset.Dataset, gram *linalg.Matrix, tr kernelmachine.Trainer, folds int, seed int64) float64 {
	t.Helper()
	gather := func(rows, cols []int) *linalg.Matrix {
		m := linalg.NewMatrix(len(rows), len(cols))
		for i, a := range rows {
			for j, b := range cols {
				m.Set(i, j, gram.At(a, b))
			}
		}
		return m
	}
	labels := func(rows []int) []int {
		y := make([]int, len(rows))
		for i, a := range rows {
			y[i] = d.Y[a]
		}
		return y
	}
	trains, tests := stats.KFold(d.N(), folds, stats.NewRNG(seed+17))
	total := 0.0
	for f := range trains {
		model, err := tr.Train(gather(trains[f], trains[f]), labels(trains[f]))
		if err != nil {
			t.Fatalf("reference fold %d: %v", f, err)
		}
		pred := kernelmachine.Classify(model.Scores(gather(tests[f], trains[f])))
		total += stats.Accuracy(pred, labels(tests[f]))
	}
	return total / float64(len(trains))
}

func fastPathWorkload(seed int64) *dataset.Dataset {
	cfg := dataset.DefaultBiometricConfig()
	cfg.N = 48
	d := dataset.SyntheticBiometric(cfg, stats.NewRNG(seed))
	d.Standardize()
	return d
}

// TestFastPathMatchesReference is the equivalence suite of the CV fold
// loop: for Ridge, SMO and the perceptron, across seeds × folds × workers,
// every trace score of a chain search — through TrainScratch (the ridge
// one through the native ridge body) and through plain Train (refTrainer)
// — must be bit-identical to referenceCV on the same Gram, so a drift in
// the loop's split, labels or scratch reuse fails here, and both searches
// must select the same partition.
func TestFastPathMatchesReference(t *testing.T) {
	trainers := []kernelmachine.Trainer{
		kernelmachine.Ridge{},
		kernelmachine.SVM{C: 1, Seed: 2, MaxIter: 40},
		kernelmachine.Perceptron{Epochs: 5},
	}
	for _, trainer := range trainers {
		for _, seed := range []int64{1, 2, 3} {
			d := fastPathWorkload(seed)
			for _, folds := range []int{3, 4, 5} {
				want := map[string]float64{}
				oracle := func(e *Evaluator, p partition.Partition) float64 {
					k := p.Key()
					if s, ok := want[k]; ok {
						return s
					}
					want[k] = referenceCV(t, d, e.gramCache.GramForPartition(p, e.cfg.Combiner, nil), trainer, folds, seed)
					return want[k]
				}
				for _, workers := range []int{1, 2, 8} {
					mk := func(tr kernelmachine.Trainer) *Evaluator {
						e, err := NewEvaluator(d, Config{
							Trainer: tr, Objective: CVAccuracy,
							Folds: folds, Seed: seed, Parallelism: workers,
						})
						if err != nil {
							t.Fatal(err)
						}
						return e
					}
					fast := mk(trainer)
					plain := mk(refTrainer{trainer})
					p := partition.Coarsest(d.D())
					fastRes, err := ChainSearch(fast, p, BestOfChain)
					if err != nil {
						t.Fatal(err)
					}
					plainRes, err := ChainSearch(plain, p, BestOfChain)
					if err != nil {
						t.Fatal(err)
					}
					if fastRes.Score != plainRes.Score || !fastRes.Best.Equal(plainRes.Best) {
						t.Fatalf("%v seed %d folds %d workers %d: scratch (%v, %v) != plain Train (%v, %v)",
							trainer, seed, folds, workers, fastRes.Best, fastRes.Score, plainRes.Best, plainRes.Score)
					}
					if len(fastRes.Trace) != len(plainRes.Trace) {
						t.Fatalf("%v seed %d folds %d workers %d: trace lengths %d vs %d",
							trainer, seed, folds, workers, len(fastRes.Trace), len(plainRes.Trace))
					}
					for i, st := range fastRes.Trace {
						ref := oracle(fast, st.Partition)
						if st.Score != ref || plainRes.Trace[i].Score != ref {
							t.Fatalf("%v seed %d folds %d workers %d: trace[%d] at %v: scratch %v, plain Train %v, reference %v",
								trainer, seed, folds, workers, i, st.Partition, st.Score, plainRes.Trace[i].Score, ref)
						}
					}
				}
			}
		}
	}
}

// TestFoldPlanSharedAcrossWorkersRace exercises the shared read-only fold
// plan under the full parallel-search machinery (run with -race in CI): 8
// workers' scratch evaluators gather folds from one plan concurrently while
// training in worker-owned scratch.
func TestFoldPlanSharedAcrossWorkersRace(t *testing.T) {
	d := fastPathWorkload(4)
	e, err := NewEvaluator(d, Config{Objective: CVAccuracy, Seed: 1, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ChainSearch(e, partition.Coarsest(d.D()), BestOfChain)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewEvaluator(d, Config{Objective: CVAccuracy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ChainSearch(seq, partition.Coarsest(d.D()), BestOfChain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != want.Score || !res.Best.Equal(want.Best) {
		t.Fatalf("parallel fast path (%v, %v) != sequential (%v, %v)", res.Best, res.Score, want.Best, want.Score)
	}
}

// TestClearScoreCache: cleared caches force re-evaluation (evals climb)
// while producing identical scores from warmed scratch.
func TestClearScoreCache(t *testing.T) {
	d := fastPathWorkload(5)
	e, err := NewEvaluator(d, Config{Objective: CVAccuracy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := d.ViewPartition()
	s1, err := e.Score(p)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := e.Score(p); s != s1 || e.Evaluations() != 1 {
		t.Fatalf("expected cache hit: score %v vs %v, evals %d", s, s1, e.Evaluations())
	}
	e.ClearScoreCache()
	s2, err := e.Score(p)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 {
		t.Fatalf("score after ClearScoreCache: %v, want %v", s2, s1)
	}
	if e.Evaluations() != 2 {
		t.Fatalf("evaluations = %d, want 2 (cache was cleared)", e.Evaluations())
	}
}

// TestAlignmentObjectiveScratchCentering: the KernelAlignment objective
// centers into evaluator scratch; repeated and interleaved scoring must not
// corrupt the shared Gram buffers.
func TestAlignmentObjectiveScratchCentering(t *testing.T) {
	d := fastPathWorkload(6)
	e, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ps := []partition.Partition{
		partition.Coarsest(d.D()),
		d.ViewPartition(),
		partition.Finest(d.D()),
	}
	first := make([]float64, len(ps))
	for i, p := range ps {
		s, err := e.Score(p)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = s
	}
	e.ClearScoreCache()
	for i, p := range ps {
		s, err := e.Score(p)
		if err != nil {
			t.Fatal(err)
		}
		if s != first[i] {
			t.Fatalf("re-scoring %v: %v, want %v (scratch corruption?)", p, s, first[i])
		}
	}
}

// sentinel marks the dataset row, by its first feature, whose Gram
// diagonal sentinelKernel sets.
const sentinel = 1e6

// sentinelKernel is RBF(γ = 1) between ordinary rows; it decouples the
// sentinel row from every other row and gives it the Gram diagonal entry
// diag. Its Eval alone makes the evaluator build Grams pairwise.
type sentinelKernel struct{ diag float64 }

func (k sentinelKernel) Eval(x, y []float64) float64 {
	switch sx, sy := x[0] == sentinel, y[0] == sentinel; {
	case sx && sy:
		return k.diag
	case sx || sy:
		return 0
	}
	return kernel.RBF{Gamma: 1}.Eval(x, y)
}

func (k sentinelKernel) String() string { return fmt.Sprintf("sentinel(%v)", k.diag) }

// TestCVRidgePairsMatchSequentialFolds pins cvRidge's paired folds to the
// sequential fold loop (refTrainer: one Ridge.Train per fold) when one row
// of the Gram has a negative diagonal, with that row a test row of each
// fold in turn, at k = 2, 3 and 4 (k = 3 ends on a lone fold). At -1 every
// fold that trains on the row needs the heavier ridge, and the two loops'
// scores agree bit for bit; at -100 no ridge rescues those folds, and both
// loops fail naming the same fold, the first that trains on the row.
func TestCVRidgePairsMatchSequentialFolds(t *testing.T) {
	const seed = 1
	for _, folds := range []int{2, 3, 4} {
		plan := stats.NewFoldPlan(48, folds, stats.NewRNG(seed+17))
		for f := 0; f < folds; f++ {
			d := fastPathWorkload(seed)
			if d.N() != 48 {
				t.Fatalf("workload has %d rows, the plan 48", d.N())
			}
			d.X[plan.Tests[f][0]][0] = sentinel
			firstFailing := 0
			if f == 0 {
				firstFailing = 1
			}
			for _, diag := range []float64{-1, -100} {
				score := func(tr kernelmachine.Trainer) (float64, error) {
					e, err := NewEvaluator(d, Config{
						Trainer: tr, Objective: CVAccuracy, Folds: folds, Seed: seed, Parallelism: 1,
						Factory: func([]int) kernel.Kernel { return sentinelKernel{diag} },
					})
					if err != nil {
						t.Fatal(err)
					}
					return e.Score(partition.Coarsest(d.D()))
				}
				what := fmt.Sprintf("k=%d sentinel in fold %d diag %v", folds, f, diag)
				paired, perr := score(kernelmachine.Ridge{})
				seq, serr := score(refTrainer{kernelmachine.Ridge{}})
				if diag == -1 {
					if perr != nil || serr != nil {
						t.Fatalf("%s: paired %v, sequential %v", what, perr, serr)
					}
					if math.Float64bits(paired) != math.Float64bits(seq) {
						t.Fatalf("%s: paired score %v, sequential %v", what, paired, seq)
					}
					continue
				}
				want := fmt.Sprintf("mkl: fold %d: ", firstFailing)
				if perr == nil || serr == nil || perr.Error() != serr.Error() || !strings.HasPrefix(perr.Error(), want) {
					t.Fatalf("%s: paired error %v, sequential %v, want both to start %q", what, perr, serr, want)
				}
			}
		}
	}
}

// countdownCtx is a context whose Err reports nil for its first left calls
// and context.Canceled from then on: a cancel that lands at a known check.
type countdownCtx struct {
	context.Context
	left, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestScoreCancelledMidEvaluation: a context cancelled while an exact CV
// score is underway stops it at the next fold step, for the paired ridge
// folds and the one-fold SMO loop alike. Score returns ctx.Err() itself,
// and the candidate is neither counted nor cached: once the context is
// unbound, Score computes it afresh and gets a fresh evaluator's score.
func TestScoreCancelledMidEvaluation(t *testing.T) {
	d := fastPathWorkload(2)
	p := partition.Coarsest(d.D())
	for _, tr := range []kernelmachine.Trainer{kernelmachine.Ridge{}, kernelmachine.SVM{C: 1, Seed: 2, MaxIter: 40}} {
		mk := func() *Evaluator {
			e, err := NewEvaluator(d, Config{Trainer: tr, Objective: CVAccuracy, Folds: 5, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e := mk()
		// Score's entry check and the first fold step pass; the second
		// step finds the context cancelled.
		ctx := &countdownCtx{Context: context.Background(), left: 2}
		e.SetContext(ctx)
		if _, err := e.Score(p); err != context.Canceled {
			t.Fatalf("%v: cancelled Score returned %v, want context.Canceled", tr, err)
		}
		if ctx.calls != 3 {
			t.Fatalf("%v: the context was checked %d times, want 3 (entry, two fold steps)", tr, ctx.calls)
		}
		if e.Evaluations() != 0 {
			t.Fatalf("%v: a cancelled evaluation was counted", tr)
		}
		e.SetContext(nil)
		got, err := e.Score(p)
		if err != nil {
			t.Fatal(err)
		}
		if e.Evaluations() != 1 {
			t.Fatalf("%v: %d evaluations after the re-score, want 1: the cancelled score was cached", tr, e.Evaluations())
		}
		want, err := mk().Score(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: re-score %v, fresh evaluator %v", tr, got, want)
		}
	}
}
