// The context-first fit API: Fit(ctx, data, options...) is the package's
// entry point. Functional options configure it (WithConfig accepts a whole
// FitConfig struct), the context cancels or deadlines the lattice search
// at candidate-evaluation granularity, and WithProgress streams the fit's
// event sequence for live display or machine-readable logging. (Package
// documentation lives in iotml.go.)

package iotml

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distsearch"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/mkl"
)

// Option configures one aspect of a Fit call. Options are applied in
// order, so a later option overrides an earlier one; the zero
// configuration (no options) reproduces the paper's defaults — rough-set
// seeding with K ≤ 2, chain search with the best-of-chain rule, RBF block
// kernels under the sum combiner, kernel ridge, 4-fold CV, parallel
// search across all cores.
type Option func(*core.FitConfig)

// WithStrategy selects the lattice exploration strategy (SearchChain,
// SearchChainFirstImprovement, SearchGreedy, SearchExhaustive).
func WithStrategy(s SearchStrategy) Option {
	return func(c *core.FitConfig) { c.Search = s }
}

// WithLearner selects the kernel machine trained inside cross-validation
// and deployed by FitResult.Artifact (see RidgeLearner, SVMLearner,
// PerceptronLearner).
func WithLearner(l Learner) Option {
	return func(c *core.FitConfig) { c.MKL.Trainer = l }
}

// WithKernelFamily selects the per-block kernel factory (see RBFKernels,
// LinearKernels, NormalizedKernels).
func WithKernelFamily(f KernelFamily) Option {
	return func(c *core.FitConfig) { c.MKL.Factory = f }
}

// WithCombiner selects how block kernels aggregate across partition
// blocks (CombineSum or CombineProduct).
func WithCombiner(cb Combiner) Option {
	return func(c *core.FitConfig) { c.MKL.Combiner = cb }
}

// WithFolds sets the cross-validation fold count (default 4).
func WithFolds(k int) Option {
	return func(c *core.FitConfig) { c.MKL.Folds = k }
}

// WithCVSeed seeds the cross-validation fold split (the fit is
// deterministic for a fixed seed at every parallelism setting).
func WithCVSeed(seed int64) Option {
	return func(c *core.FitConfig) { c.MKL.Seed = seed }
}

// WithParallelism bounds the search worker pool: 0 (the default) uses all
// cores, 1 forces the sequential path, n > 1 uses n workers. The selected
// partition, score, and progress stream are identical at every setting.
func WithParallelism(n int) Option {
	return func(c *core.FitConfig) { c.MKL.Parallelism = n }
}

// WithProgress streams the fit's progress events — seed selection, every
// candidate evaluated, best-so-far improvements, search and fit completion
// — to fn. fn runs on the goroutine driving the search, in deterministic
// order at every worker count; it must return quickly (the search blocks
// while it runs). The plumbing adds no allocations to the steady-state
// candidate-evaluation path.
func WithProgress(fn func(Event)) Option {
	return func(c *core.FitConfig) { c.MKL.Progress = fn }
}

// WithObjective selects the candidate-scoring objective: CVAccuracy (the
// faithful default) or KernelAlignment (the cheap proxy).
func WithObjective(o Objective) Option {
	return func(c *core.FitConfig) { c.MKL.Objective = o }
}

// WithSeedMaxK bounds the size of the rough-set-selected seed block K
// (default 2).
func WithSeedMaxK(k int) Option {
	return func(c *core.FitConfig) { c.SeedMaxK = k }
}

// Backend selects the numeric backend of the lattice search (see
// WithBackend): Float64Backend is the bit-identical reference,
// Float32Backend the f32-storage fast path, NystromBackend/RFFBackend the
// low-rank approximations. The zero Backend is Float64Backend.
type Backend = engine.Backend

// Numeric backends for WithBackend.
var (
	// Float64Backend is the exact reference backend — the default, and
	// bit-identical to a fit that never mentions backends.
	Float64Backend = engine.Float64
	// Float32Backend stores Grams, Cholesky factors, and coefficients in
	// float32 while accumulating every inner loop in float64: roughly half
	// the memory traffic of the scoring loop, with assembled Gram entries
	// within 1e-4·max(1,|K|) of the reference elementwise and selections
	// bit-identical across worker counts.
	Float32Backend = engine.Float32
)

// NystromBackend returns the Nyström landmark backend with the given
// per-block rank (0 selects the default, 64): candidates are scored on
// seeded landmark factors, exact to ≤1e-9 at rank = n.
func NystromBackend(rank int) Backend { return engine.Nystrom(rank) }

// RFFBackend returns the random-Fourier-feature backend with the given
// per-block rank (0 selects the default, 64): RBF blocks are scored on
// seeded random-Fourier-feature factors, other blocks fall back to
// Nyström.
func RFFBackend(rank int) Backend { return engine.RFF(rank) }

// ParseBackend parses the CLI spelling of a backend — "exact", "f32",
// "nystrom[:rank]", or "rff[:rank]" — into the Backend WithBackend
// consumes. "auto" is rejected: resolve it with AutoBackend first.
func ParseBackend(s string) (Backend, error) { return engine.Parse(s) }

// WithBackend selects the numeric backend of the lattice search:
// Float64Backend (the default; bit-identical to every pre-backend fit),
// Float32Backend (f32 storage with f64 accumulation — the fast path for
// mid-sized dense workloads), or NystromBackend/RFFBackend (low-rank
// factor scoring for large n; combine with WithBudget to re-score top
// survivors exactly). The deployment fit behind Deploy/Artifact always
// stays exact float64 whatever backend scored the search. Approximate
// backends require the (default) sum combiner.
func WithBackend(b Backend) Option {
	return func(c *core.FitConfig) { c.MKL.Backend = b }
}

// AutoBackend picks a backend from the workload — the one-line selection
// facade: the exact reference while its O(n²) assembly is cheap, the f32
// fast path for mid-sized dense workloads, and Nyström factors (rank 256)
// beyond. The alignment objective stretches the exact backends further
// than cross-validated accuracy because its per-candidate cost is lower:
//
//	objective        Float64      Float32      NystromBackend(256)
//	KernelAlignment  n ≤ 2048     n ≤ 8192     larger
//	CVAccuracy       n ≤ 1024     n ≤ 4096     larger
//
// Typical use: iotml.Fit(ctx, d, iotml.WithBackend(iotml.AutoBackend(d, iotml.CVAccuracy))).
func AutoBackend(d *Dataset, obj Objective) Backend {
	return engine.Auto(d.N(), obj == KernelAlignment)
}

// WithBudget enables the budgeted search mode on top of an approximate
// Gram backend: the whole lattice is scored with the cheap approximation
// and only the topK best distinct candidates are re-scored exactly, with
// the exact scores deciding the final selection (see mkl.BudgetedSearch).
// Values <= 0 disable re-scoring; without an approximate WithBackend the
// option has no effect. It composes with WithDistributedWorkers: the
// approximate sweep is scored by the fleet, the exact top-K re-score runs
// in-process.
func WithBudget(topK int) Option {
	return func(c *core.FitConfig) { c.MKL.BudgetTopK = topK }
}

// Distributed search: the coordinator/worker types of internal/distsearch.
type (
	// DistOptions configures a distributed lattice search: the worker
	// fleet, the serializable evaluator spec, and the robustness knobs
	// (per-shard deadline, retry budget, backoff policy).
	DistOptions = distsearch.Options
	// DistSpec is the serializable evaluator configuration coordinator
	// and workers expand identically (plain strings and numbers — the
	// wire form of the kernel/learner/CV choices).
	DistSpec = distsearch.Spec
)

// WithDistributedWorkers distributes candidate scoring across the worker
// processes in opts.Workers (each running `iotml search-worker`). The
// evaluator configuration is derived from opts.Spec on both sides of the
// wire, overriding WithLearner/WithKernelFamily/WithCombiner/WithFolds/
// WithCVSeed/WithObjective/WithBackend for this fit, so the fit's own
// evaluator and the remote ones score alike by construction;
// WithParallelism, WithProgress and WithBudget still apply. The selected
// partition and score are bit-identical to an in-process fit with the
// same spec, at every fleet size and under worker failures: dead, hung,
// or corrupt-result workers are retried with jittered backoff, their
// shards re-dispatched to live peers, and candidates an exhausted pool
// leaves behind are scored on the fit's own in-process pool. In budgeted
// mode (WithBudget) the fleet scores the approximate sweep and the exact
// top-K re-score runs in-process. An empty worker list leaves the fit
// fully in-process.
func WithDistributedWorkers(opts DistOptions) Option {
	return func(c *core.FitConfig) {
		if len(opts.Workers) == 0 {
			c.Dist = nil
			return
		}
		c.Dist = &opts
	}
}

// WithConfig replaces the whole accumulated configuration — the escape
// hatch for callers migrating from the FitConfig struct API. Options after
// it apply on top.
func WithConfig(cfg FitConfig) Option {
	return func(c *core.FitConfig) { *c = cfg }
}

// Fit runs the paper's Section III procedure end to end on a faceted
// dataset: select the seed block K dynamically by rough-set approximation
// accuracy, form the two-block seed (K, S−K), and explore the partition
// lattice for the multiple-kernel configuration with the best validated
// performance.
//
// The context bounds the whole fit: cancellation or a deadline aborts the
// search within one candidate evaluation, drains the worker pool without
// leaking goroutines, and returns the partial FitResult accumulated so far
// (best-so-far configuration, score, evaluation count) alongside an error
// wrapping ctx.Err().
func Fit(ctx context.Context, d *Dataset, opts ...Option) (*FitResult, error) {
	var cfg core.FitConfig
	for _, o := range opts {
		o(&cfg)
	}
	return core.Fit(ctx, d, cfg)
}

// Learners, kernel families, and combiners for the option catalogue.
type (
	// Learner trains a kernel machine from a Gram matrix and ±1 labels.
	Learner = kernelmachine.Trainer
	// KernelFamily builds the kernel for one block of features.
	KernelFamily = kernel.BlockKernelFactory
	// Combiner aggregates block kernels across partition blocks.
	Combiner = kernel.Combiner
	// Objective selects the candidate-scoring objective.
	Objective = mkl.Objective
)

// Combiners and objectives.
const (
	CombineSum      = kernel.CombineSum
	CombineProduct  = kernel.CombineProduct
	CVAccuracy      = mkl.CVAccuracy
	KernelAlignment = mkl.KernelAlignment
)

// RidgeLearner returns kernel ridge regression with the given
// regularization strength (values <= 0 select the default 1e-2).
func RidgeLearner(lambda float64) Learner {
	if lambda <= 0 {
		lambda = 1e-2
	}
	return kernelmachine.Ridge{Lambda: lambda}
}

// SVMLearner returns the SMO-trained soft-margin SVM.
func SVMLearner(c float64, seed int64) Learner {
	return kernelmachine.SVM{C: c, Seed: seed}
}

// PerceptronLearner returns the kernel perceptron.
func PerceptronLearner() Learner { return kernelmachine.Perceptron{} }

// RBFKernels returns the RBF family with gamma = base/|block| (the
// heuristic that keeps block kernels comparable across block sizes).
func RBFKernels(gamma float64) KernelFamily { return kernel.RBFFactory(gamma) }

// LinearKernels returns the inner-product family.
func LinearKernels() KernelFamily { return kernel.LinearFactory() }

// NormalizedKernels wraps a family so every block Gram has a unit
// diagonal.
func NormalizedKernels(base KernelFamily) KernelFamily {
	return kernel.NormalizedFactory(base)
}

// Progress events.
type (
	// Event is one step of a fit's progress stream (see WithProgress).
	Event = mkl.Event
	// EventKind discriminates progress events.
	EventKind = mkl.EventKind
)

// Progress event kinds. The dist-* kinds are emitted only by distributed
// fits (WithDistributedWorkers) and reflect real-time transport activity —
// their order and count vary run to run, while the candidate-evaluated
// stream stays deterministic.
const (
	EventSeedSelected       = mkl.EventSeedSelected
	EventCandidateEvaluated = mkl.EventCandidateEvaluated
	EventBestImproved       = mkl.EventBestImproved
	EventSearchFinished     = mkl.EventSearchFinished
	EventFitFinished        = mkl.EventFitFinished
	EventShardDispatched    = mkl.EventShardDispatched
	EventShardRetried       = mkl.EventShardRetried
	EventShardRedispatched  = mkl.EventShardRedispatched
	EventWorkerDown         = mkl.EventWorkerDown
	EventDistFallback       = mkl.EventDistFallback
)

// Data ingestion: real workloads enter through a declarative Schema.
type (
	// Schema declares how tabular data maps onto a Dataset (label column,
	// feature order, view boundaries, NaN policy).
	Schema = dataset.Schema
	// SchemaView declares one facet: a named group of feature columns.
	SchemaView = dataset.SchemaView
	// NaNPolicy selects how non-finite cells are ingested.
	NaNPolicy = dataset.NaNPolicy
)

// NaN policies.
const (
	NaNReject    = dataset.NaNReject
	NaNAsMissing = dataset.NaNAsMissing
	NaNDropRow   = dataset.NaNDropRow
)

// ReadCSV ingests labeled CSV under the schema: the first record is the
// header, feature cells must be finite floats (empty/NaN cells go through
// the schema's NaN policy), labels must be ±1.
func ReadCSV(r io.Reader, s Schema) (*Dataset, error) { return dataset.ReadCSV(r, s) }

// ReadJSONL ingests labeled JSON-lines data: one object per record
// mapping column names to numbers.
func ReadJSONL(r io.Reader, s Schema) (*Dataset, error) { return dataset.ReadJSONL(r, s) }

// WriteCSV renders a dataset as labeled CSV with shortest-round-trip
// floats, so ReadCSV(WriteCSV(d), d.CSVSchema()) reproduces the dataset —
// and a fit on it — bit-for-bit.
func WriteCSV(w io.Writer, d *Dataset) error { return dataset.WriteCSV(w, d) }
