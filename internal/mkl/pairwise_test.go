package mkl

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/partition"
	"repro/internal/stats"
)

// evalOnly hides a block kernel's BlockGramKernel implementation, so every
// Gram route — block cache, full-configuration Gram, deployment Gram and
// cross-Gram — falls back to the scalar pairwise Eval path.
type evalOnly struct{ kernel.Kernel }

// pairwiseFactory wraps f (nil selects the default RBFFactory) so that
// every block kernel it builds is Eval-only.
func pairwiseFactory(f kernel.BlockKernelFactory) kernel.BlockKernelFactory {
	if f == nil {
		f = kernel.RBFFactory(1.0)
	}
	return func(feats []int) kernel.Kernel { return evalOnly{f(feats)} }
}

func exactGramWorkload(seed int64) *dataset.Dataset {
	cfg := dataset.DefaultBiometricConfig()
	cfg.N = 60
	d := dataset.SyntheticBiometric(cfg, stats.NewRNG(seed))
	d.Standardize()
	return d
}

// TestScoreVectorizedVsExact compares Evaluator.Score across the Gram
// engine's three routes — block cache (vectorized), no cache (vectorized
// full configuration), and the scalar reference (pairwise Eval through an
// Eval-only factory, CV on the reference loop) — under both objectives.
// Linear factories must agree bit-for-bit; the default RBF factory within
// 1e-9.
func TestScoreVectorizedVsExact(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d := exactGramWorkload(seed)
		cases := []struct {
			name    string
			factory kernel.BlockKernelFactory
			tol     float64
		}{
			{"rbf", nil, 1e-9}, // nil selects the default RBFFactory
			{"linear", kernel.LinearFactory(), 0},
		}
		for _, tc := range cases {
			for _, obj := range []Objective{CVAccuracy, KernelAlignment} {
				mk := func(cfg Config) *Evaluator {
					cfg.Objective, cfg.Seed = obj, 1
					e, err := NewEvaluator(d, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return e
				}
				// The uncached evaluators get a retention-disabled cache
				// over the resolved factory (nil means RBFFactory(1.0)).
				factory := tc.factory
				if factory == nil {
					factory = kernel.RBFFactory(1.0)
				}
				cached := mk(Config{Factory: tc.factory})
				uncached := mk(Config{Factory: tc.factory, GramCache: kernel.NewBlockGramCache(d.X, factory, -1)})
				ref := pairwiseFactory(tc.factory)
				exact := mk(Config{
					Factory:   ref,
					Trainer:   refTrainer{kernelmachine.Ridge{Lambda: 1e-2}},
					GramCache: kernel.NewBlockGramCache(d.X, ref, -1),
				})
				for _, p := range []partition.Partition{
					partition.Coarsest(d.D()),
					partition.Finest(d.D()),
					d.ViewPartition(),
				} {
					sc, err := cached.Score(p)
					if err != nil {
						t.Fatal(err)
					}
					su, err := uncached.Score(p)
					if err != nil {
						t.Fatal(err)
					}
					se, err := exact.Score(p)
					if err != nil {
						t.Fatal(err)
					}
					if sc != su {
						t.Errorf("seed %d %s obj %d %s: cached %v != uncached %v (both vectorized)",
							seed, tc.name, obj, p, sc, su)
					}
					if d := math.Abs(sc - se); d > tc.tol {
						t.Errorf("seed %d %s obj %d %s: vectorized %v vs exact %v (off %v, tol %v)",
							seed, tc.name, obj, p, sc, se, d, tc.tol)
					}
				}
			}
		}
	}
}

// TestHoldoutAccuracyExactGram checks the deployment path: vectorized and
// pairwise holdout accuracy agree (accuracy is discrete, so the RBF
// tolerance almost surely preserves every prediction — and must here).
func TestHoldoutAccuracyExactGram(t *testing.T) {
	train := exactGramWorkload(4)
	test := exactGramWorkload(5)
	p := train.ViewPartition()
	fast, err := HoldoutAccuracy(train, test, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := HoldoutAccuracy(train, test, p, Config{Factory: pairwiseFactory(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow {
		t.Errorf("holdout accuracy differs: vectorized %v, exact %v", fast, slow)
	}
}

// TestHoldoutAccuracyRejectsFeatureMismatch checks that a test set with
// fewer or more features than train is refused with an error naming both
// counts, instead of panicking in the cross-Gram or being scored on its
// first columns.
func TestHoldoutAccuracyRejectsFeatureMismatch(t *testing.T) {
	train := exactGramWorkload(4)
	p := train.ViewPartition()
	for _, tc := range []struct {
		name  string
		extra int
	}{{"fewer", -2}, {"more", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			test := exactGramWorkload(5)
			for i, row := range test.X {
				if tc.extra < 0 {
					test.X[i] = row[:len(row)+tc.extra]
				} else {
					test.X[i] = append(row, make([]float64, tc.extra)...)
				}
			}
			want := fmt.Sprintf("test set has %d features, train set has %d", train.D()+tc.extra, train.D())
			if _, err := HoldoutAccuracy(train, test, p, Config{}); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want it to contain %q", err, want)
			}
		})
	}
}
