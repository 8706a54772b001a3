// Package mkl implements the paper's primary contribution (Section III):
// partition-driven multiple kernel learning. Every partition of the feature
// set induces a multiple-kernel configuration (one block kernel per block);
// the learner explores the partition lattice for the configuration that
// maximizes validated performance.
//
// Three exploration strategies are provided, matching the paper's cost
// analysis:
//
//   - ExhaustiveCone enumerates the full lower cone of a two-block seed
//     partition (K, S−K), refining S−K in every possible way. Its cost is
//     Bell(|S−K|) evaluations — the sums of Stirling numbers the paper
//     cites as infeasible.
//   - ChainSearch walks one saturated symmetric chain of the
//     Loeb–Damiani–D'Antona decomposition of the cone, after ordering the
//     free features by single-feature kernel-target alignment so the
//     chain's canonical merges follow the data. Its cost is |S−K|
//     evaluations — the linear strategy the paper proposes.
//   - GreedyRefine hill-climbs through lower covers (block splits) — the
//     natural local-search ablation, costing O(width) evaluations per step.
//
// The seed partition is chosen dynamically with rough-set approximation
// accuracy on the benchmark concept (SeedFromRoughSet), as Section III
// prescribes, "as opposed to statically, based on semantic distance
// between features".
package mkl

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/combinat"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/parsearch"
	"repro/internal/partition"
	"repro/internal/rough"
	"repro/internal/stats"
)

// Objective selects the score a partition's kernel configuration receives.
type Objective int

const (
	// CVAccuracy is k-fold cross-validated classification accuracy — the
	// expensive, faithful objective.
	CVAccuracy Objective = iota
	// KernelAlignment is centered kernel-target alignment — a cheap proxy
	// used in ablations and as a pre-filter.
	KernelAlignment
)

// Config assembles the pieces of a partition-driven MKL run. Zero values
// select reasonable defaults (RBF blocks, sum combiner, ridge learner,
// 4-fold CV, parallel search across all available cores).
//
// Every exact Gram — each candidate's, each singleton ranking's and the
// deployment fit's — is assembled by a kernel.BlockGramCache from per-block
// Grams, which come from the vectorized block formulas for the base
// kernels and from pairwise Eval — the scalar reference arithmetic — for a
// block kernel without one. Every Trainer is cross-validated by the one
// fold loop (cvFolds): ridge natively at the backend's storage width, a
// kernelmachine.ScratchTrainer in evaluator scratch without allocating,
// and any other trainer through plain Train.
type Config struct {
	Factory   kernel.BlockKernelFactory
	Combiner  kernel.Combiner
	Trainer   kernelmachine.Trainer
	Folds     int
	Seed      int64
	Objective Objective

	// Parallelism sizes the in-process worker pool every search strategy
	// and ScoreShard score candidates on when no scorer is attached (see
	// SetScorer): 0 means runtime.GOMAXPROCS(0), 1 is the exact sequential
	// path — one Score call per candidate, in canonical order, so
	// Result.Evaluations is the paper's sequential cost — and n > 1 uses n
	// workers. Best, Score, Trace and the candidate progress events are
	// identical at every setting; only the stoppable searches
	// (GreedyRefine and the FirstImprovement chains) may score a bounded
	// number of extra candidates past their stop.
	Parallelism int

	// GramCacheBlocks bounds the per-dataset block cache (kernel.BlockCache)
	// behind every backend — exact block Grams, f32 block Grams, or low-rank
	// block factors — that lets sibling partitions sharing feature blocks
	// reuse them: 0 selects kernel.DefaultGramCacheBlocks, negative disables
	// retention. Beyond the bound the oldest blocks are evicted (FIFO), which
	// changes which blocks stay resident, never a score. With retention
	// disabled every block is rebuilt on each use, and the exact assembly
	// holds the candidate's Gram plus one block at a time.
	GramCacheBlocks int

	// GramCache optionally injects a shared Gram-block cache (it must have
	// been built over this evaluator's dataset rows and factory). Several
	// evaluators over one dataset — e.g. the per-row evaluators of a
	// concurrent experiment table — can then share block Grams.
	GramCache *kernel.BlockGramCache

	// Progress, when non-nil, receives the fit's event stream: one
	// EventCandidateEvaluated per scored configuration plus seed/best/
	// search markers (see progress.go). The callback runs on the goroutine
	// driving the search — never on a scratch worker — and in deterministic
	// candidate order at every parallelism setting. It must be fast: the
	// search blocks while it runs.
	Progress func(Event)

	// Backend selects the numeric backend of the evaluator (see
	// internal/engine): the zero value — engine.Float64 — is the
	// bit-identical reference path; engine.Float32 assembles and solves in
	// f32 storage with f64 accumulation (elementwise tolerance contract
	// engine.Tol32 vs the reference, bit-identical across worker counts);
	// engine.Nystrom/engine.RFF score candidates on cached low-rank block
	// factors (see approx.go). The deployment fit (TrainDeployed /
	// HoldoutAccuracy) always stays exact float64 regardless of backend.
	Backend engine.Backend

	// BudgetTopK, with an approximate Backend, enables the budgeted
	// search mode at the core.Fit layer: the lattice is scored with the
	// cheap approximation and only the top-K survivors are re-scored
	// exactly (see BudgetedSearch). 0 disables re-scoring.
	BudgetTopK int
}

func (c Config) withDefaults() Config {
	if c.Factory == nil {
		c.Factory = kernel.RBFFactory(1.0)
	}
	if c.Trainer == nil {
		c.Trainer = kernelmachine.Ridge{Lambda: 1e-2}
	}
	if c.Folds < 2 {
		c.Folds = 4
	}
	return c
}

// Evaluator scores partitions of the feature set on a fixed training set,
// counting kernel-configuration evaluations (the cost unit of the paper's
// complexity discussion). Scores are cached by partition, and cache hits do
// not count as evaluations.
type Evaluator struct {
	cfg   Config
	data  *dataset.Dataset
	evals int // cache misses: configurations actually computed
	calls int // every Score call, cache hits included
	cache map[string]float64

	// ctx, when non-nil, bounds every candidate evaluation: once it is
	// done, Score refuses new work with ctx.Err(), so any search over this
	// evaluator aborts within one candidate evaluation (SetContext).
	ctx context.Context

	// scorer, when non-nil, scores every candidate batch of a search in
	// place of the in-process pool (SetScorer).
	scorer CandidateScorer
	// gramCache is the exact float64 block-Gram cache and is never nil:
	// under Float64 it assembles every candidate's Gram; under the other
	// backends it retains nothing and serves only the singleton alignment
	// ranking. cache32 (Float32 only) memoizes the f32 block Grams. Both
	// are shared across the scratch evaluators of a parallel search (the
	// caches are concurrency-safe).
	gramCache *kernel.BlockGramCache
	cache32   *kernel.DenseGramCache[float32]
	// d64 and d32 are the worker-owned scratch of the full-Gram scoring
	// body at each storage width (see dense). Each worker of a parallel
	// search owns its evaluator, so the buffers are reused across
	// candidates without reallocation and without races. The approximate
	// backends and the float64 fold body reuse d64's buffers too.
	d64 dense[float64]
	d32 dense[float32]
	// folds is the CV fold plan plus per-fold label slices, computed once in
	// NewEvaluator and shared read-only across the scratch evaluators of a
	// parallel search (every candidate uses the identical split).
	folds *foldData
	// kmScratch, scoreBuf, and predBuf are the per-evaluator learner and
	// prediction scratch of the CV fold loop (worker-owned).
	kmScratch kernelmachine.Scratch
	scoreBuf  []float64
	predBuf   []int

	// approxCache memoizes per-block low-rank factors under the
	// approximate backends (nil otherwise); like gramCache it is
	// concurrency-safe and shared across the scratch evaluators of a
	// parallel search. factorBuf is the worker-owned concatenated-factor
	// assembly buffer, and the lr* fields are the worker-owned scratch of
	// the low-rank ridge / alignment paths (see approx.go).
	approxCache *kernel.ApproxGramCache
	factorBuf   *linalg.Matrix
	lrA         *linalg.Matrix
	lrCentered  *linalg.Matrix
	lrRhs       linalg.Vector
	lrWork      linalg.Vector
	lrY         linalg.Vector
	lrCols      []int
}

// dense is the worker-owned scratch of the full-Gram scoring body at
// storage width T: the assembled Gram, the CV fold sub- and cross-Gram
// gathers, the block-assembly scratch, and the ridge
// factor/solve buffers.
type dense[T linalg.Float] struct {
	gram, sub, cross *linalg.Dense[T]
	asm              kernel.BlockScratch[*linalg.Dense[T]]
	ridge            kernelmachine.RidgeScratch[T]
}

// foldData bundles the precomputed CV split with the per-fold label slices
// every candidate evaluation shares. Immutable after NewEvaluator.
type foldData struct {
	plan   *stats.FoldPlan
	yTrain [][]int
	yTest  [][]int
}

// NewEvaluator validates the dataset and returns an Evaluator.
func NewEvaluator(d *dataset.Dataset, cfg Config) (*Evaluator, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.N() == 0 {
		return nil, fmt.Errorf("mkl: empty dataset")
	}
	cfg = cfg.withDefaults()
	e := &Evaluator{cfg: cfg, data: d, cache: map[string]float64{}}
	exactLimit := cfg.GramCacheBlocks
	switch cfg.Backend.Kind {
	case engine.Float32Kind:
		// The f32 block cache scores every candidate: assembly, centering,
		// fold gathers, and ridge solves all run in f32 storage (see
		// dense.score).
		e.cache32 = kernel.NewDenseGramCache[float32](d.X, cfg.Factory, cfg.GramCacheBlocks)
		exactLimit = -1
	case engine.NystromKind, engine.RFFKind:
		if cfg.Combiner == kernel.CombineProduct {
			return nil, fmt.Errorf("mkl: approximate backends support CombineSum only (a product of low-rank Grams has no low-rank factor)")
		}
		kind := kernel.ApproxNystrom
		if cfg.Backend.Kind == engine.RFFKind {
			kind = kernel.ApproxRFF
		}
		// The factor cache scores every candidate: no full Gram is
		// assembled on the approximate path (non-primal trainers
		// materialize F·Fᵀ from the factor, not from blocks).
		e.approxCache = kernel.NewApproxGramCache(d.X, cfg.Factory, kind, cfg.Backend.Rank, cfg.Seed, cfg.GramCacheBlocks)
		exactLimit = -1
	}
	// An explicitly injected cache always wins — GramCacheBlocks only
	// governs the cache this evaluator would otherwise create for itself.
	// Outside Float64 the exact cache only ranks singletons (and stands in
	// for a degenerate approximate singleton block), so it retains nothing.
	e.gramCache = cfg.GramCache
	if e.gramCache == nil {
		e.gramCache = kernel.NewBlockGramCache(d.X, cfg.Factory, exactLimit)
	}
	// The CV fold plan is a pure function of (n, folds, seed) and identical
	// for every candidate, so it is computed once here — stats.NewFoldPlan
	// consumes the same rng stream KFold(seed+17) consumed historically —
	// and shared read-only with the scratch evaluators of a parallel search.
	plan := stats.NewFoldPlan(d.N(), cfg.Folds, stats.NewRNG(cfg.Seed+17))
	e.folds = &foldData{
		plan:   plan,
		yTrain: stats.GatherLabels(d.Y, plan.Trains),
		yTest:  stats.GatherLabels(d.Y, plan.Tests),
	}
	return e, nil
}

// workers resolves the configured parallelism to a concrete worker count.
func (e *Evaluator) workers() int { return parsearch.Workers(e.cfg.Parallelism) }

// SetContext binds ctx to the evaluator: once ctx is done, Score refuses
// new candidate evaluations with ctx.Err(), so every search strategy over
// this evaluator returns within one candidate evaluation of the
// cancellation (one batch, on an attached scorer), carrying the partial
// result accumulated so far. A nil ctx (the default) disables the check.
// The in-process worker pool stops claiming candidates once ctx is done,
// and an attached scorer receives ctx with every batch.
func (e *Evaluator) SetContext(ctx context.Context) { e.ctx = ctx }

// searchCtx returns the bound context, or a background context when none
// was bound (the scorers need a non-nil context to poll).
func (e *Evaluator) searchCtx() context.Context {
	if e.ctx != nil {
		return e.ctx
	}
	return context.Background()
}

// scratchClone returns a worker-owned evaluator for the in-process pool:
// it shares the dataset, configuration, and block caches, but owns its
// scratch Gram buffers, so concurrent workers never contend on
// per-candidate allocations. Pool workers only compute (scoreConfig); the
// parent's cache front does the caching and counting.
func (e *Evaluator) scratchClone() *Evaluator {
	return &Evaluator{cfg: e.cfg, data: e.data, gramCache: e.gramCache, cache32: e.cache32, approxCache: e.approxCache, folds: e.folds}
}

// DeploymentGram returns p's float64 training Gram for TrainDeployed,
// assembled from the blocks the search left in the evaluator's exact
// cache, or nil when that cache does not hold them — under the Float32
// and approximate backends, with retention disabled, or with a scorer
// attached (the fleet built the blocks) — in which case the deployment
// fit assembles its own, one block at a time. The route is
// GramForPartition either way, so the bits do not depend on which side
// assembles it.
func (e *Evaluator) DeploymentGram(p partition.Partition) *linalg.Matrix {
	if e.cfg.Backend.Kind != engine.Float64Kind || !e.gramCache.Retains() || e.scorer != nil || e.checkDims(p) != nil {
		return nil
	}
	return e.gramCache.GramForPartition(p, e.cfg.Combiner, nil)
}

// Evaluations returns the number of kernel configurations actually
// computed (cache hits excluded) — the true computational cost.
func (e *Evaluator) Evaluations() int { return e.evals }

// Calls returns the number of Score invocations including cache hits —
// the number of lattice points a search visited.
func (e *Evaluator) Calls() int { return e.calls }

// ClearScoreCache drops every memoized partition score (counters, the
// Gram-block cache, and all scratch buffers persist). Long-lived evaluators
// re-scoring after label updates — and the BenchmarkScore_* suite, which
// must pay the full evaluation on every iteration — use this to force
// cache misses without discarding the evaluator's warmed scratch.
func (e *Evaluator) ClearScoreCache() { clear(e.cache) }

// Score evaluates the kernel configuration induced by p. With a bound
// context (SetContext), a done context fails the call with ctx.Err()
// before any work happens; an evaluation already underway is never
// interrupted.
func (e *Evaluator) Score(p partition.Partition) (float64, error) {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return 0, err
		}
	}
	if err := e.checkDims(p); err != nil {
		return 0, err
	}
	e.calls++
	key := p.Key()
	if s, ok := e.cache[key]; ok {
		return s, nil
	}
	score, err := e.scoreConfig(p)
	if err != nil {
		return 0, err
	}
	e.evals++
	e.cache[key] = score
	return score, nil
}

// checkDims rejects a partition over the wrong number of features.
func (e *Evaluator) checkDims(p partition.Partition) error {
	if p.N() != e.data.D() {
		return fmt.Errorf("mkl: partition over %d features, dataset has %d", p.N(), e.data.D())
	}
	return nil
}

// scoreConfig computes the objective value of one kernel configuration —
// the cache-miss body of Score. The approximate backends route through the
// low-rank factor path (scoreApprox in approx.go); Float32 and Float64
// assemble the candidate's full Gram at their storage width from their
// block cache and share one scoring body (dense.score).
func (e *Evaluator) scoreConfig(p partition.Partition) (float64, error) {
	switch {
	case e.approxCache != nil:
		return e.scoreApprox(p)
	case e.cache32 != nil:
		return e.d32.score(e, e.d32.assemble(e.cache32, p, e.cfg.Combiner))
	}
	return e.d64.score(e, e.d64.assemble(e.gramCache, p, e.cfg.Combiner))
}

// assemble combines the cached block Grams of p into the worker-owned
// full-Gram buffer and returns it.
func (s *dense[T]) assemble(c *kernel.DenseGramCache[T], p partition.Partition, combiner kernel.Combiner) *linalg.Dense[T] {
	s.gram = c.GramForPartitionScratch(p, combiner, s.gram, &s.asm)
	return s.gram
}

// score is the one scoring body of the full-Gram backends, at either
// storage width. Alignment centers and aligns at the Gram's width; ridge
// CV gathers, solves and scores natively at it (cvRidge). Learners without
// a native loop at T (SVM's SMO, the perceptron, a caller's trainer) run
// the float64 fold body on the float64 Gram — the f32 Gram widened once,
// exactly, so only assembly pays the f32 rounding there.
func (s *dense[T]) score(e *Evaluator, gram *linalg.Dense[T]) (float64, error) {
	switch e.cfg.Objective {
	case KernelAlignment:
		// Read-only: gram may be a shared cache buffer.
		return kernel.CenteredAlignment(gram, e.data.Y), nil
	default:
		if r, ok := e.cfg.Trainer.(kernelmachine.Ridge); ok {
			return s.cvRidge(e, gram, r)
		}
		g, ok := any(gram).(*linalg.Matrix)
		if !ok {
			e.d64.gram = linalg.Convert(e.d64.gram, gram)
			g = e.d64.gram
		}
		return e.cvAccuracy(g)
	}
}

// cvFolds is the evaluator's one k-fold CV loop. It walks the precomputed
// fold plan; for fold f, body fits on the fold's training rows and returns
// the scores of its test rows, which cvFolds classifies and scores against
// the plan's test labels. The result is the mean accuracy, summed in fold
// order. Each body's model and scores live in evaluator scratch and are
// consumed here before the next fold rewrites them.
//
//iotml:hotpath
func (e *Evaluator) cvFolds(body func(f int, train, test []int) ([]float64, error)) (float64, error) {
	fd := e.folds
	total := 0.0
	for f, tr := range fd.plan.Trains {
		scores, err := body(f, tr, fd.plan.Tests[f])
		if err != nil {
			//iotml:allow hotpathalloc -- cold fold-failure path; the evaluation is already abandoned when it formats
			return 0, fmt.Errorf("mkl: fold %d: %w", f, err)
		}
		e.predBuf = kernelmachine.ClassifyInto(e.predBuf, scores)
		total += stats.Accuracy(e.predBuf, fd.yTest[f])
	}
	return total / float64(len(fd.plan.Trains)), nil
}

// cvRidge is the ridge fold body at the Gram's storage width:
// kernelmachine.FitRidge solves each fold's system straight from gram's
// train rows under the λ·n/10 → 1+λ·n schedule, and scores re-enter
// float64 at the scores-into step, so classification and accuracy are
// shared with every other backend. At float64 every operation is
// Ridge.TrainScratch's on the fold's Gram, so the scores are bit-identical
// to those of cvAccuracy.
//
//iotml:hotpath
func (s *dense[T]) cvRidge(e *Evaluator, gram *linalg.Dense[T], r kernelmachine.Ridge) (float64, error) {
	return e.cvFolds(func(f int, train, test []int) ([]float64, error) {
		beta, err := kernelmachine.FitRidge(r, gram, train, e.folds.yTrain[f], &s.ridge)
		if err != nil {
			return nil, err
		}
		s.cross = linalg.GatherInto(s.cross, gram, test, train)
		e.scoreBuf = linalg.MulVecInto(e.scoreBuf, s.cross, beta)
		return e.scoreBuf, nil
	})
}

// cvAccuracy is the fold body of every learner on a float64 Gram: the
// plan's index sets gather each fold's sub- and cross-Gram
// (linalg.GatherInto, capacity-reused, so alternating fold sizes n/k and
// n/k+1 stop reallocating), the learner trains on the sub-Gram, and its
// model scores the cross-Gram into evaluator scratch. A
// kernelmachine.ScratchTrainer trains in the evaluator's learner scratch,
// allocation-free in steady state; any other trainer through plain Train.
//
//iotml:hotpath
func (e *Evaluator) cvAccuracy(gram *linalg.Matrix) (float64, error) {
	st, scratch := e.cfg.Trainer.(kernelmachine.ScratchTrainer)
	return e.cvFolds(func(f int, train, test []int) ([]float64, error) {
		e.d64.sub = linalg.GatherInto(e.d64.sub, gram, train, train)
		var m *kernelmachine.DualModel
		var err error
		if scratch {
			m, err = st.TrainScratch(e.d64.sub, e.folds.yTrain[f], &e.kmScratch)
		} else {
			m, err = e.cfg.Trainer.Train(e.d64.sub, e.folds.yTrain[f])
		}
		if err != nil {
			return nil, err
		}
		e.d64.cross = linalg.GatherInto(e.d64.cross, gram, test, train)
		e.scoreBuf = m.ScoresInto(e.scoreBuf, e.d64.cross)
		return e.scoreBuf, nil
	})
}

// Step records one evaluated partition during a search.
type Step struct {
	Partition partition.Partition
	Score     float64
}

// Result is the outcome of a lattice search.
type Result struct {
	Best        partition.Partition
	Score       float64
	Evaluations int // evaluations consumed by this search alone
	Trace       []Step
}

// TwoBlockSeed builds the (K, S−K) seed partition from 1-based feature
// indices K over d features. If K is empty or covers everything, the seed
// degenerates to the coarsest partition.
func TwoBlockSeed(d int, k []int) (partition.Partition, error) {
	if d <= 0 {
		return partition.Partition{}, fmt.Errorf("mkl: nonpositive dimension %d", d)
	}
	inK := make([]bool, d+1)
	for _, f := range k {
		if f < 1 || f > d {
			return partition.Partition{}, fmt.Errorf("mkl: seed feature %d out of range [1,%d]", f, d)
		}
		inK[f] = true
	}
	assign := make([]int, d)
	for i := 1; i <= d; i++ {
		if inK[i] {
			assign[i-1] = 0
		} else {
			assign[i-1] = 1
		}
	}
	return partition.FromRGS(assign), nil
}

// SeedFromRoughSet selects K dynamically via rough-set approximation
// accuracy of the benchmark concept "class = value" on the discretized
// dataset (Section III), then returns the two-block seed (K, S−K) along
// with the selected attribute names.
func SeedFromRoughSet(d *dataset.Dataset, bins, maxK int, obj rough.SeedObjective) (partition.Partition, []string, error) {
	tbl := d.Discretize(bins)
	// Use the majority class value as the benchmark concept.
	counts := map[string]int{}
	for _, r := range tbl.Rows {
		counts[r[len(r)-1]]++
	}
	vals := make([]string, 0, len(counts))
	for v := range counts {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	bestVal, bestC := "", -1
	for _, v := range vals {
		if c := counts[v]; c > bestC {
			bestVal, bestC = v, c
		}
	}
	res, err := tbl.SelectSeed("class", bestVal, maxK, obj)
	if err != nil {
		return partition.Partition{}, nil, err
	}
	nameToIdx := map[string]int{}
	for j, name := range tbl.Attrs[:len(tbl.Attrs)-1] {
		nameToIdx[name] = j + 1 // 1-based feature id
	}
	var k []int
	for _, a := range res.Attrs {
		k = append(k, nameToIdx[a])
	}
	sort.Ints(k)
	seed, err := TwoBlockSeed(d.D(), k)
	return seed, res.Attrs, err
}

// coneToFull maps a partition q of the free-block elements (1..m in the
// order of freeElems) into a full partition of the feature set with the
// seed's other blocks intact.
func coneToFull(seed partition.Partition, freeBlock int, freeElems []int, q partition.Partition) partition.Partition {
	d := seed.N()
	assign := make([]int, d)
	// Blocks of the seed other than freeBlock keep distinct labels.
	for i := 1; i <= d; i++ {
		b := seed.BlockOf(i)
		if b == freeBlock {
			assign[i-1] = -1
		} else {
			assign[i-1] = b
		}
	}
	offset := seed.NumBlocks()
	for pos, e := range freeElems {
		assign[e-1] = offset + q.BlockOf(pos+1)
	}
	return partition.FromRGS(assign)
}

// freeBlockOf returns the index and elements of the block of the seed to
// refine: the largest block (ties to the last, matching S−K in a
// (K, S−K) seed where K is small).
func freeBlockOf(seed partition.Partition) (int, []int) {
	blocks := seed.Blocks()
	best, bestLen := -1, -1
	for i, b := range blocks {
		if len(b) >= bestLen {
			best, bestLen = i, len(b)
		}
	}
	return best, blocks[best]
}

// maxConeCandidates is the largest lower cone ExhaustiveCone enumerates:
// Bell(12) = 4,213,597 candidates fit, Bell(13) = 27,644,437 do not. The
// cone is materialized before any candidate is scored, so a larger free
// block would exhaust memory long before the search could finish.
const maxConeCandidates = 1 << 24

// ExhaustiveCone scores every partition in the lower cone of the seed
// obtained by refining its largest block in all possible ways (Bell(m)
// configurations for a free block of m features) and returns the best. A
// cone of more than maxConeCandidates partitions is refused with an error
// naming m and Bell(m) before anything is enumerated.
//
// Like every search strategy, it scores through the evaluator's search
// core (see scorer.go) — sequentially, on a pool of Config.Parallelism
// workers, or on an attached scorer — with an identical outcome. On error,
// including cancellation of a context bound with Evaluator.SetContext, it
// returns the partial Result accumulated so far alongside the error.
func ExhaustiveCone(e *Evaluator, seed partition.Partition) (*Result, error) {
	freeBlock, freeElems := freeBlockOf(seed)
	m := len(freeElems)
	if bell, ok := combinat.BellInt64(m); !ok || bell > maxConeCandidates {
		return &Result{Score: -1}, fmt.Errorf("mkl: exhaustive cone over a free block of m=%d features has Bell(%d) = %s candidates, more than the %d this search enumerates; use the chain or greedy search", m, m, combinat.Bell(m), maxConeCandidates)
	}
	subs := []partition.Partition{partition.Finest(1)}
	if m > 1 {
		subs = partition.All(m)
	}
	cands := make([]partition.Partition, len(subs))
	for i, q := range subs {
		cands[i] = coneToFull(seed, freeBlock, freeElems, q)
	}
	return e.beginSearch().scan(cands, BestOfChain)
}

// AscentRule selects how ChainSearch consumes its chain.
type AscentRule int

const (
	// BestOfChain evaluates every partition on the chain and returns the
	// best (m evaluations).
	BestOfChain AscentRule = iota
	// FirstImprovement walks from fine to coarse and stops as soon as a
	// step fails to improve — the paper's "adding an additional kernel will
	// not improve the performance" stopping criterion read in the merge
	// direction (≤ m evaluations).
	FirstImprovement
)

// ChainSearch walks one saturated symmetric chain of the LDD decomposition
// of the free block's partition lattice — the principal full-span chain,
// which visits one partition per rank, from all-singletons to one block:
// exactly m evaluations for a free block of m features.
//
// To make the canonical chain data-adaptive, the free features are first
// ordered by decreasing single-feature kernel-target alignment; the chain
// then merges the most informative features first. The singletons are
// scored on the same worker pool as the chain, with the same outcome at
// every worker count.
//
// Under FirstImprovement on more than one worker (or an attached scorer)
// the chain is scored ahead in batches of the scorer's BatchSize, so
// Result.Evaluations may exceed the sequential count while the selection
// and trace stay identical.
func ChainSearch(e *Evaluator, seed partition.Partition, rule AscentRule) (*Result, error) {
	freeBlock, freeElems := freeBlockOf(seed)
	r := e.beginSearch()
	ordered, err := r.alignmentOrder(freeElems)
	if err != nil {
		return &Result{Score: -1}, err
	}
	chain := principalChain(len(freeElems))
	cands := make([]partition.Partition, len(chain))
	for i, q := range chain {
		// Remap q's canonical elements through the alignment ordering.
		cands[i] = coneToFull(seed, freeBlock, ordered, q)
	}
	return r.scan(cands, rule)
}

// scan scores cands in canonical order and keeps the best under rule:
// BestOfChain observes every candidate, FirstImprovement stops at the
// first one after the start that fails to improve. It is the reduction of
// every strategy that walks a fixed candidate list (ChainSearch,
// ExhaustiveCone, DendrogramSearch, ChainBeamSearch).
func (r *searchRun) scan(cands []partition.Partition, rule AscentRule) (*Result, error) {
	e := r.e
	res := &Result{Score: -1}
	err := r.sweep(cands, rule == BestOfChain, func(i int, s float64) bool {
		return e.observe(res, cands[i], s) || rule != FirstImprovement || i == 0
	})
	res.Evaluations = r.evaluations()
	return res, err
}

// principalChain returns the full-span symmetric chain of Π_m used by
// ChainSearch: the chain lifted from the de Bruijn chain
// (∅, {1}, {1,2}, ..., {1..m-1}), whose composition types are
// (1,...,1,j+1) — at rank j the last j+1 elements form one block and the
// rest stay singletons: 1/2/.../m, then 1/.../(m-2)/(m-1,m), ..., 12...m.
// It is the first chain of the LDD decomposition's first group (verified
// against chains.Decompose in tests), constructed directly so large m
// stays cheap.
//
// Combined with ChainSearch's decreasing-alignment feature ordering, the
// chain pools the least informative features first, keeping strong features
// in their own kernels until late in the walk.
func principalChain(m int) []partition.Partition {
	if m == 1 {
		return []partition.Partition{partition.Finest(1)}
	}
	out := make([]partition.Partition, 0, m)
	for rank := 0; rank < m; rank++ {
		assign := make([]int, m)
		for i := 0; i < m; i++ {
			if i >= m-1-rank {
				assign[i] = m - 1 - rank // tail block
			} else {
				assign[i] = i
			}
		}
		out = append(out, partition.FromRGS(assign))
	}
	return out
}

// GreedyRefine hill-climbs from the seed through lower covers (splitting
// one block into two) until no split improves the score, taking the first
// improving cover in canonical order at every step.
//
// With more than one worker (or an attached scorer) each step's covers are
// scored ahead in batches of the scorer's BatchSize — a large block has
// exponentially many covers and the climb usually improves early — so
// Result.Evaluations may exceed the sequential count by up to one batch
// per step while the selection and trace stay identical.
func GreedyRefine(e *Evaluator, seed partition.Partition) (*Result, error) {
	r := e.beginSearch()
	res := &Result{Score: -1}
	if err := r.sweep([]partition.Partition{seed}, true, func(_ int, s float64) bool {
		res.Best, res.Score, res.Trace = seed, s, []Step{{seed, s}}
		return true
	}); err != nil {
		// Nothing evaluated (e.g. cancellation before the seed): an empty
		// partial keeps the every-search-returns-a-partial contract.
		res.Evaluations = r.evaluations()
		return res, err
	}
	e.emit(EventCandidateEvaluated, seed, res.Score, res)
	for improved := true; improved; {
		improved = false
		cands := res.Best.LowerCovers()
		err := r.sweep(cands, false, func(i int, s float64) bool {
			res.Trace = append(res.Trace, Step{cands[i], s})
			// Advance the incumbent before emitting, so the candidate
			// event carries the post-event best (the Event contract).
			improved = s > res.Score+1e-12
			if improved {
				res.Best, res.Score = cands[i], s
			}
			e.emit(EventCandidateEvaluated, cands[i], s, res)
			if improved {
				e.emit(EventBestImproved, cands[i], s, res)
			}
			return !improved // first-improvement descent
		})
		if err != nil {
			res.Evaluations = r.evaluations()
			return res, err
		}
	}
	res.Evaluations = r.evaluations()
	return res, nil
}

// Baselines for the headline experiment.

// SingleGlobalKernel scores the coarsest partition (one kernel on all
// features).
func SingleGlobalKernel(e *Evaluator) (*Result, error) {
	p := partition.Coarsest(e.data.D())
	s, err := e.Score(p)
	if err != nil {
		return nil, err
	}
	return &Result{Best: p, Score: s, Evaluations: 1, Trace: []Step{{p, s}}}, nil
}

// UniformPerFeature scores the finest partition (one kernel per feature,
// uniform sum) — the "uniform MKL" baseline.
func UniformPerFeature(e *Evaluator) (*Result, error) {
	p := partition.Finest(e.data.D())
	s, err := e.Score(p)
	if err != nil {
		return nil, err
	}
	return &Result{Best: p, Score: s, Evaluations: 1, Trace: []Step{{p, s}}}, nil
}

// ViewOracle scores the partition induced by the dataset's declared views —
// the structural ground truth the search strategies try to rediscover.
func ViewOracle(e *Evaluator) (*Result, error) {
	p := e.data.ViewPartition()
	s, err := e.Score(p)
	if err != nil {
		return nil, err
	}
	return &Result{Best: p, Score: s, Evaluations: 1, Trace: []Step{{p, s}}}, nil
}

// HoldoutAccuracy retrains the configuration p on all of train and reports
// accuracy on test — the final deployment measurement. The cross-Gram goes
// through the bound block path (pairwise Eval for kernels without one).
func HoldoutAccuracy(train, test *dataset.Dataset, p partition.Partition, cfg Config) (float64, error) {
	k, model, _, err := TrainDeployed(train, p, cfg, nil)
	if err != nil {
		return 0, err
	}
	pred := kernelmachine.Classify(model.Scores(kernel.CrossGram(k, test.X, train.X)))
	return stats.Accuracy(pred, test.Y), nil
}

// TrainDeployed retrains the kernel configuration induced by p on all of
// train — the deployment fit, as opposed to the CV fits of the lattice
// search — and returns the assembled kernel, the fitted model, and the
// resolved trainer (configuration defaults applied). Model persistence
// (core.FitResult.Artifact) and HoldoutAccuracy share this path, so the
// model an artifact captures is exactly the model the holdout measurement
// scores. The training Gram is float64 whatever the search backend: gram
// when non-nil — p's Gram over train, as Evaluator.DeploymentGram
// assembles it from a search's block cache, which the trainer only
// reads — and otherwise assembled here exactly like a search candidate's,
// by a retention-disabled block cache, so the fit holds that Gram plus one
// block at a time. Both routes give the same bits.
func TrainDeployed(train *dataset.Dataset, p partition.Partition, cfg Config, gram *linalg.Matrix) (kernel.Kernel, *kernelmachine.DualModel, kernelmachine.Trainer, error) {
	cfg = cfg.withDefaults()
	if p.N() != train.D() {
		return nil, nil, nil, fmt.Errorf("mkl: partition over %d features, dataset has %d", p.N(), train.D())
	}
	if gram == nil {
		gram = kernel.NewBlockGramCache(train.X, cfg.Factory, -1).GramForPartition(p, cfg.Combiner, nil)
	}
	model, err := cfg.Trainer.Train(gram, train.Y)
	if err != nil {
		return nil, nil, nil, err
	}
	return kernel.FromPartition(p, cfg.Factory, cfg.Combiner), model, cfg.Trainer, nil
}
