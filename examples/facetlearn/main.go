// Facetlearn: the full Section III story on faceted biometric data —
// compare every lattice exploration strategy and baseline, report the
// evaluation cost each one pays, and show the Bell-number wall the paper's
// linear chain search avoids.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/combinat"
	"repro/internal/dataset"
	"repro/internal/mkl"
	"repro/internal/partition"
	"repro/internal/stats"
)

func main() {
	cfg := dataset.DefaultBiometricConfig()
	if os.Getenv("IOTML_EXAMPLE_TINY") != "" {
		cfg.N = 50 // smoke-test workload (see examples_smoke_test.go)
	}
	train := dataset.SyntheticBiometric(cfg, stats.NewRNG(11))
	train.Standardize()
	test := dataset.SyntheticBiometric(cfg, stats.NewRNG(12))
	test.Standardize()

	fmt.Printf("faceted workload: %d features in %d facets, %d train / %d test\n\n",
		train.D(), len(train.Views), train.N(), test.N())

	e, err := mkl.NewEvaluator(train, mkl.Config{Objective: mkl.CVAccuracy, Folds: 4, Seed: 3, Parallelism: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Release()
	seed := partition.Coarsest(train.D())

	type entry struct {
		name string
		run  func() (*mkl.Result, error)
	}
	entries := []entry{
		{"single global kernel", func() (*mkl.Result, error) { return mkl.SingleGlobalKernel(e) }},
		{"uniform per-feature", func() (*mkl.Result, error) { return mkl.UniformPerFeature(e) }},
		{"view oracle (truth)", func() (*mkl.Result, error) { return mkl.ViewOracle(e) }},
		{"chain search (paper)", func() (*mkl.Result, error) { return mkl.ChainSearch(e, seed, mkl.BestOfChain) }},
		{"chain, first-improve", func() (*mkl.Result, error) { return mkl.ChainSearch(e, seed, mkl.FirstImprovement) }},
		{"greedy refinement", func() (*mkl.Result, error) { return mkl.GreedyRefine(e, seed) }},
	}
	fmt.Printf("%-22s %-28s %8s %8s %6s\n", "strategy", "partition", "cv", "holdout", "evals")
	for _, en := range entries {
		res, err := en.run()
		if err != nil {
			log.Fatal(err)
		}
		acc, err := mkl.HoldoutAccuracy(train, test, res.Best, mkl.Config{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %-28s %8.3f %8.3f %6d\n", en.name, res.Best, res.Score, acc, res.Evaluations)
	}

	fmt.Println("\nthe Bell-number wall (exhaustive cone cost for m free features):")
	for m := 4; m <= 16; m += 2 {
		fmt.Printf("  m = %2d: chain search %2d evals, exhaustive %s\n",
			m, m, combinat.Bell(m))
	}
}
