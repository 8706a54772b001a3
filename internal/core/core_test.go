package core

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mkl"
	"repro/internal/stats"
)

func workload(n int, seed int64) *dataset.Dataset {
	d := dataset.SyntheticBiometric(dataset.BiometricConfig{
		N: n, FacePerDim: 2, Noise: 0.3, IrrelevantSD: 1,
	}, stats.NewRNG(seed))
	d.Standardize()
	return d
}

func TestFitEndToEnd(t *testing.T) {
	train := workload(120, 1)
	test := workload(80, 2)
	res, err := Fit(context.Background(), train, FitConfig{
		MKL: mkl.Config{Objective: mkl.KernelAlignment, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed.NumBlocks() != 2 {
		t.Errorf("seed %s should have two blocks", res.Seed)
	}
	if len(res.SeedAttrs) == 0 {
		t.Error("no seed attributes selected")
	}
	if res.Evaluations <= 0 {
		t.Error("no evaluations recorded")
	}
	acc, err := mkl.HoldoutAccuracy(train, test, res.Best, mkl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.6 {
		t.Errorf("deployed accuracy = %v, want reasonable separation", acc)
	}
}

func TestFitStrategies(t *testing.T) {
	train := workload(80, 3)
	for _, s := range []SearchStrategy{SearchChain, SearchChainFirstImprovement, SearchGreedy} {
		res, err := Fit(context.Background(), train, FitConfig{
			Search: s,
			MKL:    mkl.Config{Objective: mkl.KernelAlignment, Seed: 1},
		})
		if err != nil {
			t.Fatalf("strategy %d: %v", s, err)
		}
		if res.Best.N() != train.D() {
			t.Errorf("strategy %d: partition over %d features", s, res.Best.N())
		}
	}
}

func TestFitValidation(t *testing.T) {
	bad := &dataset.Dataset{X: [][]float64{{1}}, Y: []int{1, -1}}
	if _, err := Fit(context.Background(), bad, FitConfig{}); err == nil {
		t.Error("invalid dataset accepted")
	}
}
