// Package iotml is the public API of the reproduction of "Toward
// IoT-Friendly Learning Models" (Damiani, Gianini, Ceci, Malerba — ICDCS
// 2018): partition-driven multiple kernel learning over faceted IoT data,
// seeded by Pawlak rough sets and searched along Loeb–Damiani–D'Antona
// symmetric chains of the partition lattice, plus the adversarially
// modeled acquisition/preparation/analytics pipeline of the paper's
// Section IV.
//
// # Quickstart
//
//	train, err := iotml.ReadCSV(f, iotml.Schema{Label: "label"})
//	// ... or train := iotml.SyntheticBiometric(cfg, iotml.NewRNG(1))
//	train.Standardize()
//	res, err := iotml.Fit(ctx, train,
//		iotml.WithLearner(iotml.RidgeLearner(1e-2)),
//		iotml.WithProgress(func(ev iotml.Event) { log.Println(ev.Kind, ev.BestScore) }),
//	)
//	// res.Best is the selected kernel partition, res.Score its CV value.
//
// Fit is the primary entry point: a context-first call configured by
// functional options (WithStrategy, WithLearner, WithKernelFamily,
// WithCombiner, WithFolds, WithParallelism, WithProgress, ...). The
// context cancels or deadlines the fit at candidate-evaluation
// granularity — a cancelled fit returns its partial best-so-far result
// with an error wrapping ctx.Err() — and the progress callback streams
// the search's event sequence in deterministic order at every worker
// count. Real data enters through ReadCSV/ReadJSONL under a declarative
// Schema (label column, feature order, view boundaries, NaN policy);
// WriteCSV round-trips datasets with exact float precision.
//
// The lattice search runs on a bounded worker pool sized by
// WithParallelism (0 = all cores, 1 = sequential); parallel results are
// bit-identical to sequential ones at every worker count (see
// internal/parsearch for the determinism guarantee).
//
// # Numeric backends
//
// Candidate scoring is pluggable (internal/engine): WithBackend selects
// Float64Backend (the default — bit-identical to every pre-backend fit),
// Float32Backend (f32 storage with f64 accumulation — the float32
// instantiation of the same generic kernels, cache and scoring body the
// default runs at float64; Gram entries within engine.Tol32 of the
// reference, selections bit-identical across worker counts), or
// NystromBackend/RFFBackend (low-rank factor scoring for
// large n, combinable with WithBudget). AutoBackend(d, objective) picks
// one from the workload size, and ParseBackend reads the CLI spellings
// ("exact", "f32", "nystrom:256", "rff:128"). The deployment fit behind
// Deploy and FitResult.Artifact always retrains in exact float64,
// whatever backend scored the search.
//
// The examples/ directory contains six runnable programs (including the
// serving lifecycle walkthrough in examples/serving); cmd/iotml
// regenerates every table, figure and claim of the paper (run `iotml run
// all`), fits models on synthetic or CSV/JSONL data (`iotml fit`), and
// serves them (`iotml serve`, with signal-driven graceful shutdown).
// Subsystem packages live under internal/ and are re-exported here where
// they form the public surface.
package iotml

import (
	"context"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/game"
	"repro/internal/kernel"
	"repro/internal/mkl"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/rough"
	"repro/internal/serve"
	"repro/internal/stats"
)

// Core fit API (Fit itself and its options live in fit.go).
type (
	// FitConfig is the struct-style configuration WithConfig consumes.
	FitConfig = core.FitConfig
	// FitResult is the outcome of Fit.
	FitResult = core.FitResult
	// SearchStrategy selects the lattice exploration strategy.
	SearchStrategy = core.SearchStrategy
)

// Search strategies.
const (
	SearchChain                 = core.SearchChain
	SearchChainFirstImprovement = core.SearchChainFirstImprovement
	SearchGreedy                = core.SearchGreedy
	SearchExhaustive            = core.SearchExhaustive
)

// Deploy retrains a chosen configuration on train and scores it on test.
func Deploy(train, test *Dataset, p Partition, cfg MKLConfig) (float64, error) {
	return mkl.HoldoutAccuracy(train, test, p, cfg)
}

// Data model.
type (
	// Dataset is a labeled faceted dataset.
	Dataset = dataset.Dataset
	// View is a named facet of the feature set.
	View = dataset.View
	// BiometricConfig parameterizes the synthetic faceted workload.
	BiometricConfig = dataset.BiometricConfig
)

// SyntheticBiometric generates the faceted identification workload.
func SyntheticBiometric(cfg BiometricConfig, rng *rand.Rand) *Dataset {
	return dataset.SyntheticBiometric(cfg, rng)
}

// DefaultBiometricConfig returns the benchmark workload configuration.
func DefaultBiometricConfig() BiometricConfig { return dataset.DefaultBiometricConfig() }

// NewRNG returns a deterministic pseudo-random generator.
func NewRNG(seed int64) *rand.Rand { return stats.NewRNG(seed) }

// Lattice machinery.
type (
	// Partition is a set partition of {1..n} in the paper's notation.
	Partition = partition.Partition
)

// ParsePartition reads the paper's "1/23/4" notation.
func ParsePartition(s string) (Partition, error) { return partition.Parse(s) }

// FinestPartition returns the all-singletons partition of {1..n}.
func FinestPartition(n int) Partition { return partition.Finest(n) }

// CoarsestPartition returns the one-block partition of {1..n}.
func CoarsestPartition(n int) Partition { return partition.Coarsest(n) }

// Kernels and MKL plumbing.
type (
	// Kernel is a positive-semidefinite similarity function.
	Kernel = kernel.Kernel
	// MKLConfig assembles kernel factory, combiner, learner and CV.
	MKLConfig = mkl.Config
	// RBF is the Gaussian kernel.
	RBF = kernel.RBF
	// Linear is the inner-product kernel.
	Linear = kernel.Linear
)

// FromPartition builds the multiple-kernel configuration of a partition.
func FromPartition(p Partition, factory kernel.BlockKernelFactory, c kernel.Combiner) Kernel {
	return kernel.FromPartition(p, factory, c)
}

// Model persistence and serving: the train-once/serve-forever split. Fit,
// package the deployment model with FitResult.Artifact, persist it with
// Artifact.SaveFile, and serve it with internal/serve (or `iotml serve`). Loaded artifacts score bit-identically
// to the in-memory fit.
type (
	// Artifact is a persisted fitted model (versioned .iotml file).
	Artifact = model.Artifact
	// Predictor scores feature vectors against an Artifact with reused
	// batch scratch (one per goroutine).
	Predictor = model.Predictor
	// KernelSpec is the serializable description of a kernel composition.
	KernelSpec = kernel.Spec
)

// LoadArtifact reads a persisted model artifact from path, verifying its
// format version and payload checksum.
func LoadArtifact(path string) (*Artifact, error) { return model.LoadFile(path) }

// NewPredictor validates an artifact and builds its inference engine.
func NewPredictor(a *Artifact) (*Predictor, error) { return model.NewPredictor(a) }

// Fleet serving (internal/serve re-exports). Build a ServeRegistry, load
// artifacts into it, and start a Server with Serve and functional options —
// the serving mirror of the Fit option idiom:
//
//	reg := iotml.NewServeRegistry()
//	_ = reg.LoadFile("face", "face.iotml")
//	srv, err := iotml.Serve(ctx, reg, iotml.WithQueueDepth(128))
//	err = srv.ListenAndServeContext(ctx, ":8080")
//
// Each model's workers batch by drain-then-flush: a worker scores whatever
// is already queued, up to WithMaxBatch instances, without waiting for
// more. Registry.Load on a live id hot-swaps the model atomically with
// zero dropped admitted requests; WithModelDir does the same from a
// watched directory of .iotml files.
type (
	// Server is the multi-model batched inference server.
	Server = serve.Server
	// ServeRegistry is the model store a Server routes predictions to.
	ServeRegistry = serve.Registry
	// ServeOption configures a Serve call (WithMaxBatch, WithQueueDepth,
	// WithModelDir, ...).
	ServeOption = serve.Option
	// ServeMetrics is a copy-on-read snapshot of one model's serving
	// counters.
	ServeMetrics = serve.Metrics
	// ServeModelInfo describes one registered model.
	ServeModelInfo = serve.ModelInfo
	// PredictRequest is the serving API's request body.
	PredictRequest = serve.PredictRequest
	// PredictResponse is the serving API's response body.
	PredictResponse = serve.PredictResponse
)

// NewServeRegistry returns an empty model registry for Serve.
func NewServeRegistry() *ServeRegistry { return serve.NewRegistry() }

// Serve builds the multi-model inference server over reg, tied to ctx (see
// serve.New). Options mirror the Fit idiom; zero options reproduce the
// defaults.
func Serve(ctx context.Context, reg *ServeRegistry, opts ...ServeOption) (*Server, error) {
	return serve.New(ctx, reg, opts...)
}

// Serving options, re-exported so callers need only the root package.
var (
	// WithMaxBatch caps the queued instances drained into one scoring
	// batch.
	WithMaxBatch = serve.WithMaxBatch
	// WithWorkers sets the scoring worker count per model.
	WithWorkers = serve.WithWorkers
	// WithQueueDepth bounds pending requests per model (429 beyond).
	WithQueueDepth = serve.WithQueueDepth
	// WithGlobalQueueDepth bounds in-flight predictions server-wide (503
	// beyond).
	WithGlobalQueueDepth = serve.WithGlobalQueueDepth
	// WithMaxRequestBytes bounds a predict request body.
	WithMaxRequestBytes = serve.WithMaxRequestBytes
	// WithDrainTimeout bounds graceful shutdown and hot-swap drains.
	WithDrainTimeout = serve.WithDrainTimeout
	// WithModelDir serves and watches a directory of .iotml artifacts.
	WithModelDir = serve.WithModelDir
	// WithReloadInterval sets the WithModelDir polling period.
	WithReloadInterval = serve.WithReloadInterval
)

// Rough sets.
type (
	// RoughTable is a discrete information system.
	RoughTable = rough.Table
)

// PhonesExample returns the paper's four-phone table.
func PhonesExample() *RoughTable { return rough.PhonesExample() }

// Pipeline and games.
type (
	// Pipeline composes acquisition/preparation/analytics stages.
	Pipeline = pipeline.Pipeline
	// PipelineStage is one pipeline service.
	PipelineStage = pipeline.Stage
	// Bimatrix is a two-player normal-form game.
	Bimatrix = game.Bimatrix
)
