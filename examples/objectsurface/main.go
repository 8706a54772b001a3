// Objectsurface: the paper's second motivating example — "the surface of a
// physical object can be represented by its color and texture attributes,
// which correspond to two perceptually separate subsets of features". The
// texture class signal is a joint tilt of the band-energy profile, so
// reading the facet as one block is essential, and the correlation-driven
// dendrogram chain finds the facets where the marginal-alignment chain
// cannot.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/mkl"
	"repro/internal/partition"
	"repro/internal/stats"
)

func main() {
	cfg := dataset.DefaultSurfaceConfig()
	if os.Getenv("IOTML_EXAMPLE_TINY") != "" {
		cfg.N = 50 // smoke-test workload (see examples_smoke_test.go)
	}
	train := dataset.SyntheticObjectSurface(cfg, stats.NewRNG(31))
	train.Standardize()
	test := dataset.SyntheticObjectSurface(cfg, stats.NewRNG(32))
	test.Standardize()

	fmt.Printf("object-surface workload: %d color + %d texture + %d background features\n\n",
		cfg.ColorD, cfg.TexureD, cfg.BackgroundD)

	e, err := mkl.NewEvaluator(train, mkl.Config{Objective: mkl.CVAccuracy, Folds: 4, Seed: 7, Parallelism: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Release()
	seed := partition.Coarsest(train.D())

	type entry struct {
		name string
		run  func() (*mkl.Result, error)
	}
	fmt.Printf("%-24s %-44s %8s %8s\n", "strategy", "partition", "cv", "holdout")
	for _, en := range []entry{
		{"global kernel", func() (*mkl.Result, error) { return mkl.SingleGlobalKernel(e) }},
		{"view oracle", func() (*mkl.Result, error) { return mkl.ViewOracle(e) }},
		{"canonical chain", func() (*mkl.Result, error) { return mkl.ChainSearch(e, seed, mkl.BestOfChain) }},
		{"dendrogram chain", func() (*mkl.Result, error) {
			return mkl.DendrogramSearch(e, cluster.AverageLinkage, mkl.BestOfChain)
		}},
		{"beam (3 chains)", func() (*mkl.Result, error) { return mkl.ChainBeamSearch(e, seed, 3) }},
	} {
		res, err := en.run()
		if err != nil {
			log.Fatal(err)
		}
		acc, err := mkl.HoldoutAccuracy(train, test, res.Best, mkl.Config{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %-44s %8.3f %8.3f\n", en.name, res.Best, res.Score, acc)
	}

	// Show the feature dendrogram itself: the chain of partitions the
	// clustering walks, with merge heights.
	den, err := cluster.FeatureDendrogram(train.X, cluster.AverageLinkage)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfeature dendrogram (ref [8]: a dendrogram is a chain in the partition lattice):")
	for i, h := range den.Heights {
		if i >= 6 {
			fmt.Printf("  ... %d more merges\n", len(den.Heights)-i)
			break
		}
		fmt.Printf("  merge %d at height %.3f -> %s\n", i+1, h, den.Chain[i+1])
	}
}
