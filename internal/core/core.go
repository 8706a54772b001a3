// Package core assembles the paper's primary contribution into one
// convenience entry point: partition-driven multiple kernel learning over a
// faceted dataset, seeded by rough-set approximation accuracy and searched
// along a symmetric chain of the partition lattice.
//
// The root package iotml re-exports this API for library consumers; the
// individual subsystems live in the sibling internal packages (partition,
// chains, rough, kernel, mkl, pipeline, game, ...).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/distsearch"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/mkl"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/rough"
)

// FitConfig configures Fit.
// Zero values select the paper's defaults: rough-set accuracy seeding with
// K up to 2 features, chain search with the best-of-chain rule, 4-fold CV
// scoring with kernel ridge.
//
// Parallelism is configured through MKL.Parallelism: 0 (the default) uses
// runtime.GOMAXPROCS(0) workers, 1 is the exact sequential search, and
// n > 1 uses n workers. The search is deterministic — the selected
// partition and score are identical at every setting.
//
// Candidate scoring runs on the vectorized block-Gram engine (dense matrix
// kernels per partition block — see internal/kernel/blockgram.go): exact
// for linear and polynomial blocks, within 1e-9 elementwise for RBF. A
// block-kernel factory whose kernels lack the vectorized path is scored
// through pairwise Eval instead.
type FitConfig struct {
	// SeedMaxK bounds the size of the rough-set-selected block K
	// (default 2).
	SeedMaxK int
	// Search selects the exploration strategy.
	Search SearchStrategy
	// BudgetTopK, with an approximate MKL.Backend, enables the budgeted
	// search mode: the lattice is scored with the cheap approximation and
	// only the top-K survivors are re-scored exactly, on the same
	// evaluator (see mkl.BudgetedSearch). 0 disables re-scoring.
	BudgetTopK int
	// MKL configures the evaluator (objective, folds, kernels, learner).
	MKL mkl.Config

	// Dist, when non-nil with a non-empty worker list, distributes
	// candidate scoring across remote worker processes
	// (internal/distsearch). The evaluator configuration is then derived
	// from Dist.Spec — the serializable form coordinator and workers
	// expand identically — replacing MKL, of which only Parallelism and
	// Progress are kept (local orchestration, not scoring semantics);
	// BudgetTopK applies as it does in-process. Selection is bit-identical
	// to the in-process strategies; dead or hung workers are retried,
	// re-dispatched, and ultimately replaced by scoring on the fit's own
	// in-process pool, so a fit never fails because its fleet did. In
	// budgeted mode (BudgetTopK) the fleet scores the approximate sweep
	// and the fit's evaluator re-scores the top K in-process.
	Dist *distsearch.Options
}

// SearchStrategy selects how the partition lattice is explored.
type SearchStrategy int

const (
	// SearchChain walks the LDD symmetric chain — linear cost (default).
	SearchChain SearchStrategy = iota
	// SearchChainFirstImprovement stops the walk at the first
	// non-improving step (the paper's stopping criterion).
	SearchChainFirstImprovement
	// SearchGreedy hill-climbs through block splits.
	SearchGreedy
	// SearchExhaustive enumerates the whole cone (Bell-number cost; only
	// sensible for small feature counts).
	SearchExhaustive
)

// FitResult is the outcome of Fit.
type FitResult struct {
	// Seed is the rough-set-selected two-block partition (K, S-K).
	Seed partition.Partition
	// SeedAttrs names the features in K.
	SeedAttrs []string
	// Best is the selected kernel configuration.
	Best partition.Partition
	// Score is its cross-validated objective value.
	Score float64
	// Evaluations counts kernel configurations scored during the search.
	Evaluations int

	// data and cfg are retained so Artifact can retrain the selected
	// configuration on the full training set (the deployment fit). gram,
	// when non-nil, is Best's training Gram, assembled once from the
	// search's block cache as Fit returns (mkl.Evaluator.DeploymentGram);
	// it is the only n×n a FitResult holds, and Artifact only reads it.
	// Without it Artifact assembles the Gram itself, to the same bits.
	data *dataset.Dataset
	cfg  FitConfig
	gram *linalg.Matrix
}

// Artifact retrains the selected configuration on the full training set —
// the deployment fit, via mkl.TrainDeployed (on the Gram Fit kept from the
// search's block cache, when it kept one), so it is exactly the model
// mkl.HoldoutAccuracy would score — and packages it as a persistable
// model.Artifact: kernel spec, partition, training rows, dual coefficients,
// bias, and learner kind. Save the result with Artifact.Save/SaveFile and
// serve it with internal/serve; scores from the artifact (and from its
// saved-then-loaded copy) are bit-identical to scoring the deployed model
// in memory.
func (r *FitResult) Artifact() (*model.Artifact, error) {
	if r.data == nil {
		return nil, fmt.Errorf("core: fit result was not produced by Fit; no training data to package")
	}
	k, m, trainer, err := mkl.TrainDeployed(r.data, r.Best, r.cfg.MKL, r.gram)
	if err != nil {
		return nil, fmt.Errorf("core: deployment fit: %w", err)
	}
	spec, err := kernel.ToSpec(k)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	art := &model.Artifact{
		LearnerKind:  model.LearnerKindOf(trainer),
		Learner:      trainer.String(),
		Partition:    r.Best,
		KernelSpec:   spec,
		FeatureNames: r.data.FeatureNames,
		TrainX:       r.data.Matrix(),
		Coeff:        m.Coefficients(),
		Bias:         m.Bias(),
	}
	if err := art.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return art, nil
}

// Fit runs the paper's Section III procedure end to end on a faceted
// dataset, under a context: select K dynamically by rough-set
// approximation accuracy, form the two-block seed (K, S-K), and explore
// the partition lattice for the best multiple-kernel configuration.
//
// The context bounds the whole fit. Cancellation (or a deadline) is
// observed between candidate evaluations at every parallelism setting —
// the search aborts within one candidate evaluation, the worker pool
// drains without leaking goroutines, and Fit returns the partial FitResult
// accumulated so far (best-so-far configuration, score, evaluation count)
// alongside an error wrapping ctx.Err(). A partial result's Best is the
// zero partition when cancellation landed before any candidate completed.
//
// Progress, when cfg.MKL.Progress is set, streams the fit's event
// sequence: seed selection, one event per candidate evaluated,
// best-so-far improvements, and search/fit completion markers. The stream
// is identical at every worker count, and so is the selection (asserted
// by TestFitSelectionIdenticalAcrossWorkers in CI).
func Fit(ctx context.Context, d *dataset.Dataset, cfg FitConfig) (*FitResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.SeedMaxK <= 0 {
		cfg.SeedMaxK = 2
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	distributed := cfg.Dist != nil && len(cfg.Dist.Workers) > 0
	if distributed {
		distCfg, derr := cfg.Dist.Spec.Config()
		if derr != nil {
			return nil, fmt.Errorf("core: %w", derr)
		}
		distCfg.Parallelism = cfg.MKL.Parallelism
		distCfg.Progress = cfg.MKL.Progress
		cfg.MKL = distCfg
	}
	seed, attrs, err := mkl.SeedFromRoughSet(d, cfg.SeedMaxK, rough.ByAccuracy)
	if err != nil {
		return nil, fmt.Errorf("core: seeding: %w", err)
	}
	emit := func(kind mkl.EventKind, p partition.Partition, score float64, evals int) {
		if cfg.MKL.Progress != nil {
			cfg.MKL.Progress(mkl.Event{
				//iotml:allow walltime -- event timestamps are observability metadata; they never feed scoring or selection
				Kind: kind, Time: time.Now(), Partition: p, Score: score,
				Best: p, BestScore: score, Evaluations: evals,
			})
		}
	}
	emit(mkl.EventSeedSelected, seed, 0, 0)
	e, err := mkl.NewEvaluator(d, cfg.MKL)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Every return below has taken what it needs from the evaluator (the
	// deployment Gram is the result's own), so its buffers go back to the
	// recycler for the process's next fit.
	defer e.Release()
	e.SetContext(ctx)
	var search mkl.SearchFunc
	switch cfg.Search {
	case SearchGreedy:
		search = mkl.GreedyRefine
	case SearchExhaustive:
		search = mkl.ExhaustiveCone
	case SearchChainFirstImprovement:
		search = func(e *mkl.Evaluator, s partition.Partition) (*mkl.Result, error) {
			return mkl.ChainSearch(e, s, mkl.FirstImprovement)
		}
	default:
		search = func(e *mkl.Evaluator, s partition.Partition) (*mkl.Result, error) {
			return mkl.ChainSearch(e, s, mkl.BestOfChain)
		}
	}
	if distributed {
		// The coordinator scores each candidate batch across the fleet in
		// place of the in-process pool; the reduction stays the same
		// canonical-order scan, so the selection is identical.
		coord, cerr := distsearch.NewCoordinator(d, *cfg.Dist)
		if cerr != nil {
			return nil, fmt.Errorf("core: %w", cerr)
		}
		coord.SetEmitter(e.EmitDistEvent)
		e.SetScorer(coord)
	}
	var res *mkl.Result
	if cfg.MKL.Backend.IsApprox() && cfg.BudgetTopK > 0 {
		// Budgeted mode: the approximate evaluator scores the lattice
		// (through the fleet, when distributed), then re-scores the top-K
		// survivors in-process on its exact path, and those scores decide
		// the final selection. The deployment fit (FitResult.Artifact,
		// Deploy) is always exact regardless of mode.
		res, err = mkl.BudgetedSearch(e, seed, search, cfg.BudgetTopK)
	} else {
		res, err = search(e, seed)
	}
	if err != nil {
		// On cancellation the search hands back everything it finished;
		// package it as a partial FitResult so callers keep the
		// best-so-far configuration. Other errors keep failing hard.
		if res != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return &FitResult{
				Seed:        seed,
				SeedAttrs:   attrs,
				Best:        res.Best,
				Score:       res.Score,
				Evaluations: res.Evaluations,
				data:        d,
				cfg:         cfg,
			}, fmt.Errorf("core: search aborted: %w", err)
		}
		return nil, fmt.Errorf("core: search: %w", err)
	}
	emit(mkl.EventSearchFinished, res.Best, res.Score, res.Evaluations)
	// The search has just built every block of Best and kept those other
	// candidates share: assemble its Gram from them now, before the
	// evaluator releases its cache, so the deployment fit rebuilds at most
	// Best's single-use blocks.
	gram := e.DeploymentGram(res.Best)
	emit(mkl.EventFitFinished, res.Best, res.Score, res.Evaluations)
	return &FitResult{
		Seed:        seed,
		SeedAttrs:   attrs,
		Best:        res.Best,
		Score:       res.Score,
		Evaluations: res.Evaluations,
		data:        d,
		cfg:         cfg,
		gram:        gram,
	}, nil
}
