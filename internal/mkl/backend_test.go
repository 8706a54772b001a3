// The backend-parameterized equivalence suites: every search strategy ×
// seed × worker count, run under each numeric backend.
//
//   - Float64 (explicitly or as the zero Backend) is bit-identical to the
//     pre-backend reference path at every point of the matrix.
//   - Float32 keeps its documented tolerance contract against the
//     reference (alignment scores within 5e-4, CV accuracies within 0.05
//     on these workloads) and is itself bit-identical across worker
//     counts.
package mkl

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/partition"
)

// backendStrategies is the strategy axis of the matrix: each entry pairs
// a sequential search with its parallel variant.
var backendStrategies = []struct {
	name string
	dims int // feature count (bounds the cone for exhaustive/greedy)
	// stableEvals: the parallel variant evaluates exactly the sequential
	// candidate set (greedy speculates batches, so its count differs by
	// worker count while Best/Score stay identical).
	stableEvals bool
	seq         func(e *Evaluator, seed partition.Partition) (*Result, error)
	par         func(e *Evaluator, seed partition.Partition) (*Result, error)
}{
	{
		name: "chain", dims: 9, stableEvals: true,
		seq: func(e *Evaluator, s partition.Partition) (*Result, error) { return ChainSearch(e, s, BestOfChain) },
		par: func(e *Evaluator, s partition.Partition) (*Result, error) {
			return ChainSearch(e, s, BestOfChain)
		},
	},
	{
		name: "exhaustive", dims: 5, stableEvals: true,
		seq: ExhaustiveCone,
		par: ExhaustiveCone,
	},
	{
		name: "greedy", dims: 7,
		seq: GreedyRefine,
		par: GreedyRefine,
	},
}

// TestBackendFloat64BitIdenticalToDefault: WithBackend(Float64) — and the
// zero Backend — reproduce the pre-backend selection bit-for-bit across
// seeds × strategies × worker counts.
func TestBackendFloat64BitIdenticalToDefault(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, st := range backendStrategies {
			d := parallelTestDataDim(t, st.dims, 50, 13+seed)
			start := partition.Coarsest(d.D())
			ref, err := NewEvaluator(d, Config{Objective: KernelAlignment, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want, err := st.seq(ref, start)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				e, err := NewEvaluator(d, Config{
					Objective: KernelAlignment, Seed: seed,
					Backend: engine.Float64, Parallelism: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := st.par(e, start)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Best.Equal(want.Best) || got.Score != want.Score ||
					(st.stableEvals && got.Evaluations != want.Evaluations) {
					t.Errorf("seed=%d %s workers=%d: Float64 backend (%v, %v, %d evals), reference (%v, %v, %d evals)",
						seed, st.name, workers, got.Best, got.Score, got.Evaluations,
						want.Best, want.Score, want.Evaluations)
				}
			}
		}
	}
}

// TestBackendFloat32ToleranceAndDeterminism: the f32 backend tracks the
// f64 reference within the documented score tolerances, and its own
// selection is bit-identical at every worker count.
func TestBackendFloat32ToleranceAndDeterminism(t *testing.T) {
	for _, obj := range []Objective{KernelAlignment, CVAccuracy} {
		tol := 5e-4
		if obj == CVAccuracy {
			tol = 0.05
		}
		for _, seed := range []int64{1, 2, 3} {
			for _, st := range backendStrategies {
				if obj == CVAccuracy && st.name != "chain" {
					continue // one strategy covers the CV solve path; keeps the matrix fast
				}
				d := parallelTestDataDim(t, st.dims, 50, 29+seed)
				start := partition.Coarsest(d.D())
				ref, err := NewEvaluator(d, Config{Objective: obj, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				want, err := st.seq(ref, start)
				if err != nil {
					t.Fatal(err)
				}
				var first *Result
				for _, workers := range []int{1, 2, 8} {
					e, err := NewEvaluator(d, Config{
						Objective: obj, Seed: seed,
						Backend: engine.Float32, Parallelism: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					if e.d32 == nil {
						t.Fatal("Float32 backend did not build the f32 block cache")
					}
					got, err := st.par(e, start)
					if err != nil {
						t.Fatal(err)
					}
					if diff := math.Abs(got.Score - want.Score); diff > tol {
						t.Errorf("obj=%v seed=%d %s workers=%d: f32 score %v vs f64 %v (|Δ|=%g > %g)",
							obj, seed, st.name, workers, got.Score, want.Score, diff, tol)
					}
					if first == nil {
						first = got
						continue
					}
					if !got.Best.Equal(first.Best) || got.Score != first.Score ||
						(st.stableEvals && got.Evaluations != first.Evaluations) {
						t.Errorf("obj=%v seed=%d %s workers=%d: f32 not bit-identical across worker counts: (%v, %v) vs (%v, %v)",
							obj, seed, st.name, workers, got.Best, got.Score, first.Best, first.Score)
					}
				}
			}
		}
	}
}

// TestBackendFloat32ScoreTolerancePerCandidate: the per-candidate score
// contract, directly against Evaluator.Score, across combiners and the
// widen fallback for learners without a native f32 loop (SVM).
func TestBackendFloat32ScoreTolerancePerCandidate(t *testing.T) {
	d := parallelTestDataDim(t, 5, 60, 41)
	cands := []partition.Partition{
		partition.Coarsest(5),
		partition.Finest(5),
		partition.FromRGS([]int{0, 0, 1, 1, 2}),
	}
	cases := []struct {
		name string
		cfg  Config
		tol  float64
	}{
		{"alignment-sum", Config{Objective: KernelAlignment}, 5e-4},
		{"alignment-product", Config{Objective: KernelAlignment, Combiner: kernel.CombineProduct}, 5e-4},
		{"cv-ridge", Config{Objective: CVAccuracy, Seed: 1}, 0.05},
		{"cv-svm-widen", Config{Objective: CVAccuracy, Seed: 1, Trainer: kernelmachine.SVM{C: 1, Seed: 1}}, 0.05},
	}
	for _, tc := range cases {
		refCfg := tc.cfg
		ref, err := NewEvaluator(d, refCfg)
		if err != nil {
			t.Fatal(err)
		}
		f32Cfg := tc.cfg
		f32Cfg.Backend = engine.Float32
		e32, err := NewEvaluator(d, f32Cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range cands {
			want, err := ref.Score(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e32.Score(p)
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(got - want); diff > tc.tol {
				t.Errorf("%s %v: f32 score %v vs f64 %v (|Δ|=%g > %g)", tc.name, p, got, want, diff, tc.tol)
			}
		}
	}
}
