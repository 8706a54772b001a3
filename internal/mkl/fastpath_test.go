package mkl

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernelmachine"
	"repro/internal/partition"
	"repro/internal/stats"
)

// refTrainer hides a trainer's ScratchTrainer implementation behind the
// plain Trainer interface, forcing the evaluator onto the reference CV
// loop (KFold-derived split, allocating Train) so tests can compare
// the two paths on identical Gram matrices.
type refTrainer struct{ kernelmachine.Trainer }

func fastPathWorkload(seed int64) *dataset.Dataset {
	cfg := dataset.DefaultBiometricConfig()
	cfg.N = 48
	d := dataset.SyntheticBiometric(cfg, stats.NewRNG(seed))
	d.Standardize()
	return d
}

// TestFastPathMatchesReference is the tentpole equivalence suite: for
// Ridge, SMO and the perceptron, across seeds × folds × workers, the
// zero-alloc CV fast path (cached fold plan, index-gathered fold Grams,
// scratch-aware training and scoring) must produce CV scores
// bit-identical to the reference path on the same Gram engine, and
// searches must select the same partition.
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
					ref := mk(refTrainer{trainer})
					p := partition.Coarsest(d.D())
					fastRes, err := ChainSearch(fast, p, BestOfChain)
					if err != nil {
						t.Fatal(err)
					}
					refRes, err := ChainSearch(ref, p, BestOfChain)
					if err != nil {
						t.Fatal(err)
					}
					if fastRes.Score != refRes.Score || !fastRes.Best.Equal(refRes.Best) {
						t.Fatalf("%v seed %d folds %d workers %d: fast (%v, %v) != reference (%v, %v)",
							trainer, seed, folds, workers, fastRes.Best, fastRes.Score, refRes.Best, refRes.Score)
					}
					if len(fastRes.Trace) != len(refRes.Trace) {
						t.Fatalf("%v seed %d folds %d workers %d: trace lengths %d vs %d",
							trainer, seed, folds, workers, len(fastRes.Trace), len(refRes.Trace))
					}
					for i := range fastRes.Trace {
						if fastRes.Trace[i].Score != refRes.Trace[i].Score {
							t.Fatalf("%v seed %d folds %d workers %d: trace[%d] score %v (fast) != %v (reference) at %v",
								trainer, seed, folds, workers, i,
								fastRes.Trace[i].Score, refRes.Trace[i].Score, fastRes.Trace[i].Partition)
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
