package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/combinat"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/mkl"
	"repro/internal/multiview"
	"repro/internal/partition"
	"repro/internal/rough"
	"repro/internal/stats"
)

// facetWorkload builds the standard faceted train/test pair used across the
// learning experiments.
func facetWorkload(n int, seed int64) (train, test *dataset.Dataset) {
	cfg := dataset.DefaultBiometricConfig()
	cfg.N = n
	train = dataset.SyntheticBiometric(cfg, stats.NewRNG(seed))
	train.Standardize()
	test = dataset.SyntheticBiometric(cfg, stats.NewRNG(seed+1000))
	test.Standardize()
	return train, test
}

// SearchCost regenerates the Section III complexity comparison: the number
// of kernel-configuration evaluations per strategy as the free block grows.
// For n ≤ 8 the exhaustive cone is actually executed; beyond that only its
// Bell-number cost is reported (that is the point of the claim).
func SearchCost(maxN int) (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "Exploration cost in kernel-config evaluations (Section III claim)",
		Header: []string{"m = |S-K|", "Bell(m) exhaustive", "measured exhaustive", "chain (linear)", "greedy refine", "chain/exh score gap"},
	}
	if maxN < 2 {
		maxN = 2 // degenerate sweep: no rows, like the old loop
	}
	rows := make([][]interface{}, maxN-2) // one per m = 3..maxN, filled concurrently
	err := forEachRow(len(rows), func(idx int) error {
		m := idx + 3
		bell := combinat.Bell(m)
		measuredEx := "-"
		gap := "-"

		d := syntheticForDim(m, 60, int64(m))
		seed := partition.Coarsest(m)
		// The three strategies keep separate evaluators (so each row's eval
		// counts stay per-strategy) but share one Gram-block cache over d.
		// Every learning experiment searches with Parallelism 1: the
		// tables print the sequential cost (rows already run concurrently).
		factory := kernel.RBFFactory(1.0)
		gramCache := kernel.NewBlockGramCache(d.X, factory, 0)
		rowCfg := mkl.Config{Objective: mkl.KernelAlignment, Seed: 1, Factory: factory, GramCache: gramCache, Parallelism: 1}

		eChain, err := mkl.NewEvaluator(d, rowCfg)
		if err != nil {
			return err
		}
		resChain, err := mkl.ChainSearch(eChain, seed, mkl.BestOfChain)
		if err != nil {
			return err
		}

		eGreedy, err := mkl.NewEvaluator(d, rowCfg)
		if err != nil {
			return err
		}
		resGreedy, err := mkl.GreedyRefine(eGreedy, seed)
		if err != nil {
			return err
		}

		if m <= 8 {
			eEx, err := mkl.NewEvaluator(d, rowCfg)
			if err != nil {
				return err
			}
			resEx, err := mkl.ExhaustiveCone(eEx, seed)
			if err != nil {
				return err
			}
			measuredEx = fmt.Sprint(resEx.Evaluations)
			gap = fmt.Sprintf("%.4f", resEx.Score-resChain.Score)
		}
		rows[idx] = []interface{}{m, bell.String(), measuredEx, resChain.Evaluations, resGreedy.Evaluations, gap}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, cells := range rows {
		t.AddRow(cells...)
	}
	t.Note("chain search is exactly linear in m; exhaustive grows as Bell(m)")
	t.Note("score gap = exhaustive best alignment - chain best alignment (>= 0)")
	return t, nil
}

// syntheticForDim builds an m-feature two-class dataset where the first
// ⌈m/2⌉ features are informative and the rest noise, for cost sweeps.
func syntheticForDim(m, n int, seed int64) *dataset.Dataset {
	rng := stats.NewRNG(seed)
	d := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		y := 1
		if rng.Float64() < 0.5 {
			y = -1
		}
		row := make([]float64, m)
		for j := 0; j < m; j++ {
			if j < (m+1)/2 {
				row[j] = float64(y)*0.8 + rng.NormFloat64()*0.5
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	return d
}

// HeadlineMKL regenerates the headline behavioural comparison (E7):
// partition-driven search against the global-kernel, uniform-per-feature,
// and view-oracle baselines, reporting CV score, holdout accuracy, and
// evaluation cost.
func HeadlineMKL(seed int64) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Partition-driven MKL vs baselines on faceted biometric data",
		Header: []string{"strategy", "partition", "cv-score", "holdout acc", "evals", "ms"},
	}
	train, test := facetWorkload(180, seed)
	// One Gram-block cache shared by every strategy row: the rows run
	// concurrently on separate evaluators, but block sub-matrices computed
	// by any row are reused by all of them.
	factory := kernel.RBFFactory(1.0)
	gramCache := kernel.NewBlockGramCache(train.X, factory, 0)
	newEval := func() (*mkl.Evaluator, error) {
		return mkl.NewEvaluator(train, mkl.Config{
			Objective: mkl.CVAccuracy, Folds: 4, Seed: seed,
			Factory: factory, GramCache: gramCache, Parallelism: 1,
		})
	}
	seedPart := partition.Coarsest(train.D())

	type strat struct {
		name string
		run  func(e *mkl.Evaluator) (*mkl.Result, error)
	}
	strats := []strat{
		{"global kernel", mkl.SingleGlobalKernel},
		{"uniform per-feature", mkl.UniformPerFeature},
		{"view oracle", mkl.ViewOracle},
		{"chain search", func(e *mkl.Evaluator) (*mkl.Result, error) { return mkl.ChainSearch(e, seedPart, mkl.BestOfChain) }},
		{"greedy refine", func(e *mkl.Evaluator) (*mkl.Result, error) { return mkl.GreedyRefine(e, seedPart) }},
	}
	// Rows run sequentially on purpose: the ms column is the per-strategy
	// cost the paper's complexity discussion leans on, and concurrent
	// sibling rows would contend for cores and turn it into noise. The
	// shared Gram-block cache still spares each strategy the sub-matrices
	// its predecessors computed.
	for _, s := range strats {
		e, err := newEval()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := s.run(e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		ms := time.Since(start).Milliseconds()
		acc, err := mkl.HoldoutAccuracy(train, test, res.Best, mkl.Config{})
		if err != nil {
			return nil, err
		}
		t.AddRow(s.name, res.Best.String(), res.Score, acc, res.Evaluations, ms)
	}
	t.Note("expected shape: view oracle >= chain search > global kernel;")
	t.Note("chain search pays m evaluations, exhaustive would pay Bell(m)")
	return t, nil
}

// RoughSeeding regenerates E8: the effect of the seed-selection objective
// (Section III's dynamic K) on the final searched configuration.
func RoughSeeding(seed int64) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "Seed block K selection for the two-block partition (K, S-K)",
		Header: []string{"seeding", "K attrs", "seed partition", "cv-score", "holdout acc"},
	}
	train, test := facetWorkload(180, seed)
	factory := kernel.RBFFactory(1.0)
	gramCache := kernel.NewBlockGramCache(train.X, factory, 0)

	type seeding struct {
		name string
		mk   func() (partition.Partition, []string, error)
	}
	seedings := []seeding{
		{"rough accuracy (paper)", func() (partition.Partition, []string, error) {
			return mkl.SeedFromRoughSet(train, 3, 2, rough.ByAccuracy)
		}},
		{"rough granules", func() (partition.Partition, []string, error) {
			return mkl.SeedFromRoughSet(train, 3, 2, rough.ByGranuleAccuracy)
		}},
		{"entropy", func() (partition.Partition, []string, error) {
			return mkl.SeedFromRoughSet(train, 3, 2, rough.ByEntropy)
		}},
		{"static first-half", func() (partition.Partition, []string, error) {
			half := train.D() / 2
			k := make([]int, half)
			for i := range k {
				k[i] = i + 1
			}
			p, err := mkl.TwoBlockSeed(train.D(), k)
			return p, []string{"first half"}, err
		}},
	}
	rows := make([][]interface{}, len(seedings))
	err := forEachRow(len(seedings), func(i int) error {
		s := seedings[i]
		sp, attrs, err := s.mk()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		e, err := mkl.NewEvaluator(train, mkl.Config{
			Objective: mkl.CVAccuracy, Folds: 4, Seed: seed,
			Factory: factory, GramCache: gramCache, Parallelism: 1,
		})
		if err != nil {
			return err
		}
		res, err := mkl.ChainSearch(e, sp, mkl.BestOfChain)
		if err != nil {
			return err
		}
		acc, err := mkl.HoldoutAccuracy(train, test, res.Best, mkl.Config{})
		if err != nil {
			return err
		}
		rows[i] = []interface{}{s.name, fmt.Sprint(attrs), sp.String(), res.Score, acc}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, cells := range rows {
		t.AddRow(cells...)
	}
	t.Note("the paper selects K dynamically by approximation accuracy on")
	t.Note("benchmark concepts rather than statically")
	return t, nil
}

// MultiViewFamily regenerates E13: the three multi-view families of the
// paper's introduction on one faceted workload.
func MultiViewFamily(seed int64) (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "Multi-view families on faceted biometric data",
		Header: []string{"method", "holdout acc", "labels used", "models/structure"},
	}
	train, test := facetWorkload(160, seed)

	// MKL via chain search.
	e, err := mkl.NewEvaluator(train, mkl.Config{Objective: mkl.CVAccuracy, Folds: 4, Seed: seed, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	res, err := mkl.ChainSearch(e, partition.Coarsest(train.D()), mkl.BestOfChain)
	if err != nil {
		return nil, err
	}
	accMKL, err := mkl.HoldoutAccuracy(train, test, res.Best, mkl.Config{})
	if err != nil {
		return nil, err
	}
	t.AddRow("MKL (chain search)", accMKL, train.N(), res.Best.String())

	// Co-training with few labels.
	labeled := make([]int, 40)
	for i := range labeled {
		labeled[i] = i
	}
	ct, err := multiview.CoTraining{}.Fit(train, labeled)
	if err != nil {
		return nil, err
	}
	accCT := stats.Accuracy(ct.Predict(test), test.Y)
	t.AddRow("co-training", accCT, len(labeled), fmt.Sprintf("%d views", len(train.Views)))

	// Subspace learning on the first two views.
	sub, err := multiview.Subspace{Dim: 2}.Fit(train)
	if err != nil {
		return nil, err
	}
	accSub := stats.Accuracy(sub.Predict(test), test.Y)
	t.AddRow("subspace (2 dims)", accSub, train.N(), "views 1-2 latent space")

	// Oracle for reference.
	oracle, err := mkl.ViewOracle(e)
	if err != nil {
		return nil, err
	}
	accOr, err := mkl.HoldoutAccuracy(train, test, oracle.Best, mkl.Config{})
	if err != nil {
		return nil, err
	}
	t.AddRow("view-oracle MKL", accOr, train.N(), oracle.Best.String())
	t.Note("co-training uses only the labeled seed; the others use all labels")
	return t, nil
}

// AblationCombiner compares sum vs product aggregation of block kernels
// (the design choice DESIGN.md calls out).
func AblationCombiner(seed int64) (*Table, error) {
	t := &Table{
		ID:     "A1",
		Title:  "Block-kernel combiner ablation on the view-oracle partition",
		Header: []string{"combiner", "cv-score", "holdout acc"},
	}
	train, test := facetWorkload(160, seed)
	for _, comb := range []struct {
		name string
		c    kernel.Combiner
	}{{"sum (default)", kernel.CombineSum}, {"product", kernel.CombineProduct}} {
		cfg := mkl.Config{Objective: mkl.CVAccuracy, Folds: 4, Seed: seed, Combiner: comb.c}
		e, err := mkl.NewEvaluator(train, cfg)
		if err != nil {
			return nil, err
		}
		res, err := mkl.ViewOracle(e)
		if err != nil {
			return nil, err
		}
		acc, err := mkl.HoldoutAccuracy(train, test, res.Best, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(comb.name, res.Score, acc)
	}
	t.Note("product of per-block RBFs equals a feature-weighted global RBF")
	t.Note("(weight 1/|block|), which already down-weights the wide noise facet")
	t.Note("on the oracle partition; the sum combiner matters on partitions the")
	t.Note("search visits, where blocks mix signal and noise")
	return t, nil
}

// AblationAscentRule compares BestOfChain vs FirstImprovement.
func AblationAscentRule(seed int64) (*Table, error) {
	t := &Table{
		ID:     "A2",
		Title:  "Chain ascent rule ablation",
		Header: []string{"rule", "cv-score", "holdout acc", "evals"},
	}
	train, test := facetWorkload(160, seed)
	for _, rule := range []struct {
		name string
		r    mkl.AscentRule
	}{{"best-of-chain", mkl.BestOfChain}, {"first-improvement", mkl.FirstImprovement}} {
		e, err := mkl.NewEvaluator(train, mkl.Config{Objective: mkl.CVAccuracy, Folds: 4, Seed: seed, Parallelism: 1})
		if err != nil {
			return nil, err
		}
		res, err := mkl.ChainSearch(e, partition.Coarsest(train.D()), rule.r)
		if err != nil {
			return nil, err
		}
		acc, err := mkl.HoldoutAccuracy(train, test, res.Best, mkl.Config{})
		if err != nil {
			return nil, err
		}
		t.AddRow(rule.name, res.Score, acc, res.Evaluations)
	}
	t.Note("first-improvement implements the paper's stopping criterion")
	t.Note("('adding an additional kernel will not improve the performance')")
	return t, nil
}

// AblationChainSource compares where the search chain comes from: the
// canonical LDD chain under alignment ordering, the dendrogram chain from
// feature clustering (ref [8]), and the rotated multi-chain beam.
func AblationChainSource(seed int64) (*Table, error) {
	t := &Table{
		ID:     "A4",
		Title:  "Chain source ablation: canonical vs dendrogram vs beam",
		Header: []string{"chain source", "partition", "cv-score", "holdout acc", "evals"},
	}
	train, test := facetWorkload(160, seed)
	seedPart := partition.Coarsest(train.D())
	type src struct {
		name string
		run  func(e *mkl.Evaluator) (*mkl.Result, error)
	}
	sources := []src{
		{"LDD chain (aligned)", func(e *mkl.Evaluator) (*mkl.Result, error) {
			return mkl.ChainSearch(e, seedPart, mkl.BestOfChain)
		}},
		{"dendrogram (ref [8])", func(e *mkl.Evaluator) (*mkl.Result, error) {
			return mkl.DendrogramSearch(e, cluster.AverageLinkage, mkl.BestOfChain)
		}},
		{"beam of 3 chains", func(e *mkl.Evaluator) (*mkl.Result, error) {
			return mkl.ChainBeamSearch(e, seedPart, 3)
		}},
	}
	factory := kernel.RBFFactory(1.0)
	gramCache := kernel.NewBlockGramCache(train.X, factory, 0)
	rows := make([][]interface{}, len(sources))
	err := forEachRow(len(sources), func(i int) error {
		s := sources[i]
		e, err := mkl.NewEvaluator(train, mkl.Config{
			Objective: mkl.CVAccuracy, Folds: 4, Seed: seed,
			Factory: factory, GramCache: gramCache, Parallelism: 1,
		})
		if err != nil {
			return err
		}
		res, err := s.run(e)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		acc, err := mkl.HoldoutAccuracy(train, test, res.Best, mkl.Config{})
		if err != nil {
			return err
		}
		rows[i] = []interface{}{s.name, res.Best.String(), res.Score, acc, res.Evaluations}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, cells := range rows {
		t.AddRow(cells...)
	}
	t.Note("all three stay linear (or beam-linear) in the feature count;")
	t.Note("the dendrogram chain adapts its merge order to feature correlation")
	return t, nil
}

// ObjectSurface regenerates E14: the paper's second motivating example —
// a physical object's surface represented by color and texture facets,
// "two perceptually separate subsets of features". The texture signal
// lives in the joint band profile (total energy is normalized away), so a
// per-facet kernel configuration is required to read it.
func ObjectSurface(seed int64) (*Table, error) {
	t := &Table{
		ID:     "E14",
		Title:  "Object-surface workload: color + texture facets (Section I example)",
		Header: []string{"strategy", "partition", "cv-score", "holdout acc", "evals"},
	}
	cfg := dataset.DefaultSurfaceConfig()
	train := dataset.SyntheticObjectSurface(cfg, stats.NewRNG(seed))
	train.Standardize()
	test := dataset.SyntheticObjectSurface(cfg, stats.NewRNG(seed+1000))
	test.Standardize()

	e, err := mkl.NewEvaluator(train, mkl.Config{Objective: mkl.CVAccuracy, Folds: 4, Seed: seed, Parallelism: 1})
	if err != nil {
		return nil, err
	}
	seedPart := partition.Coarsest(train.D())
	type strat struct {
		name string
		run  func() (*mkl.Result, error)
	}
	for _, s := range []strat{
		{"global kernel", func() (*mkl.Result, error) { return mkl.SingleGlobalKernel(e) }},
		{"view oracle (color/texture)", func() (*mkl.Result, error) { return mkl.ViewOracle(e) }},
		{"chain search", func() (*mkl.Result, error) { return mkl.ChainSearch(e, seedPart, mkl.BestOfChain) }},
		{"dendrogram search", func() (*mkl.Result, error) {
			return mkl.DendrogramSearch(e, cluster.AverageLinkage, mkl.BestOfChain)
		}},
	} {
		res, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		acc, err := mkl.HoldoutAccuracy(train, test, res.Best, mkl.Config{})
		if err != nil {
			return nil, err
		}
		t.AddRow(s.name, res.Best.String(), res.Score, acc, res.Evaluations)
	}
	t.Note("texture bands carry almost no marginal class signal (the profile")
	t.Note("tilt must be read jointly), so the alignment-ordered canonical")
	t.Note("chain is blind here while the correlation-driven dendrogram chain")
	t.Note("recovers the facets — joint signals need joint (structural) cues")
	return t, nil
}
