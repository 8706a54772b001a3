package model

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernelmachine"
)

// boundArtifacts are the artifact shapes the steady-state tests cover: a
// Sum of subspace RBFs, the same under cosine normalization, and a
// Product.
func boundArtifacts(t *testing.T) map[string]*Artifact {
	t.Helper()
	ridge := kernelmachine.Ridge{Lambda: 1e-2}
	return map[string]*Artifact{
		"sum-rbf":        fitArtifact(t, 6, ridge, kernel.CombineSum),
		"sum-normalized": fitArtifactWith(t, 7, ridge, kernel.NormalizedFactory(kernel.RBFFactory(1.0)), kernel.CombineSum),
		"product-rbf":    fitArtifact(t, 8, ridge, kernel.CombineProduct),
	}
}

// TestPredictorSteadyStateZeroAllocs pins the serving engine's allocation
// contract: once one 32-row batch has grown the scratch, any sequence of
// batch sizes up to 32 scores with no allocation.
func TestPredictorSteadyStateZeroAllocs(t *testing.T) {
	for name, art := range boundArtifacts(t) {
		p, err := NewPredictor(art)
		if err != nil {
			t.Fatal(err)
		}
		q := queries(9, 32, art.Dim())
		dst, err := p.ScoresInto(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, n := range []int{1, 32, 1, 7, 32} {
				if dst, err = p.ScoresInto(dst, q[:n]); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per batch sequence in steady state, want 0", name, allocs)
		}
	}
}

// TestPredictorScoresMatchPairwiseCrossGram holds the bound fast path to
// the scalar reference: every cross-Gram entry within 1e-9 of
// kernel.CrossGramPairwise (the RBF contract), so each score within 1e-9
// times the coefficients' absolute sum.
func TestPredictorScoresMatchPairwiseCrossGram(t *testing.T) {
	for name, art := range boundArtifacts(t) {
		p, err := NewPredictor(art)
		if err != nil {
			t.Fatal(err)
		}
		q := queries(10, 33, art.Dim())
		got, err := p.Scores(q)
		if err != nil {
			t.Fatal(err)
		}
		k, err := art.KernelSpec.FromSpec()
		if err != nil {
			t.Fatal(err)
		}
		train := make([][]float64, art.NumTrain())
		for i := range train {
			train[i] = art.TrainX.Row(i)
		}
		want := kernelmachine.NewDualModel(art.Coeff, art.Bias).Scores(kernel.CrossGramPairwise(k, q, train))
		tol := 0.0
		for _, c := range art.Coeff {
			tol += math.Abs(c)
		}
		tol *= 1e-9
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > tol {
				t.Fatalf("%s: score %d = %v, pairwise %v (off by %v, tolerance %v)", name, i, got[i], want[i], d, tol)
			}
		}
	}
}

// TestForkSharesBoundSideAndScoresIdentically checks that forks score
// bit-identically to the predictor they came from, concurrently.
func TestForkSharesBoundSideAndScoresIdentically(t *testing.T) {
	art := fitArtifact(t, 11, kernelmachine.Ridge{Lambda: 1e-2}, kernel.CombineSum)
	p, err := NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	q := queries(11, 32, art.Dim())
	want, err := p.Scores(q)
	if err != nil {
		t.Fatal(err)
	}
	const forks = 4
	errs := make(chan error, forks)
	got := make([][]float64, forks)
	for w := 0; w < forks; w++ {
		f := p.Fork()
		if f.bound != p.bound {
			t.Fatal("Fork copied the bound training side")
		}
		go func(w int) {
			var dst []float64
			var err error
			for n := 1; n <= len(q) && err == nil; n++ {
				dst, err = f.ScoresInto(dst, q[:n])
			}
			got[w] = dst
			errs <- err
		}(w)
	}
	for w := 0; w < forks; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for w := range got {
		for i := range want {
			if math.Float64bits(got[w][i]) != math.Float64bits(want[i]) {
				t.Fatalf("fork %d score %d = %v, want %v", w, i, got[w][i], want[i])
			}
		}
	}
}
