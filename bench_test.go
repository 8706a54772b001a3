// Benchmarks regenerating every table, figure, and quantitative claim of
// the paper (one benchmark per experiment ID in DESIGN.md), plus
// micro-benchmarks for the load-bearing primitives. Run with:
//
//	go test -bench=. -benchmem
package iotml

import (
	"context"
	"testing"
	"time"

	"repro/internal/boolat"
	"repro/internal/chains"
	"repro/internal/combinat"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/mkl"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/stats"
)

func runTable(b *testing.B, f func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if t == nil || len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// E1 — Table I.
func BenchmarkTable1_ChainDecompositionPi4(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Table1(), nil })
}

// E2 — Figure 2.
func BenchmarkFigure2_PartitionLattice4(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Figure2(), nil })
}

// E3 — in-text rough-set example.
func BenchmarkExample_RoughSetPhones(b *testing.B) {
	runTable(b, experiments.RoughExample)
}

// E4 — exploration cost series (exhaustive vs chain vs greedy).
func BenchmarkClaim_SearchCost(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.SearchCost(7) })
}

// E5 — lattice asymmetry counting claim.
func BenchmarkClaim_LatticeAsymmetry(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.LatticeAsymmetry(14), nil })
}

// E6 — LDD coverage guarantee.
func BenchmarkClaim_ChainCoverage(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.ChainCoverage(6) })
}

// E7 — headline MKL comparison.
func BenchmarkHeadline_MKLFacets(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.HeadlineMKL(1) })
}

// E8 — rough-set seeding objectives.
func BenchmarkClaim_RoughSeeding(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.RoughSeeding(1) })
}

// E9 — single-player missing-data tradeoff.
func BenchmarkClaim_SinglePlayerTradeoff(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.SinglePlayerTradeoff(1) })
}

// E10 — pipeline game regimes.
func BenchmarkClaim_PipelineGame(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.PipelineGameExperiment(1) })
}

// E11 — zero-sum GAN convergence.
func BenchmarkClaim_ZeroSumGAN(b *testing.B) {
	runTable(b, experiments.ZeroSumGAN)
}

// E12 — time-stamp merge integration sweep.
func BenchmarkClaim_TimestampMerge(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.TimestampMerge(1) })
}

// E13 — multi-view family comparison.
func BenchmarkClaim_MultiViewFamily(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.MultiViewFamily(1) })
}

// E14 — object-surface workload.
func BenchmarkClaim_ObjectSurface(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.ObjectSurface(1) })
}

// E15 — prediction veracity vs pipeline transparency.
func BenchmarkClaim_Veracity(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.Veracity(1) })
}

// A1 — combiner ablation.
func BenchmarkAblation_Combiner(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.AblationCombiner(1) })
}

// A2 — ascent rule ablation.
func BenchmarkAblation_AscentRule(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.AblationAscentRule(1) })
}

// A3 — equilibrium solver ablation.
func BenchmarkAblation_EquilibriumSolver(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.AblationEquilibriumSolver(1) })
}

// A4 — chain source ablation.
func BenchmarkAblation_ChainSource(b *testing.B) {
	runTable(b, func() (*experiments.Table, error) { return experiments.AblationChainSource(1) })
}

// --- micro-benchmarks for the primitives the experiments lean on ---

func BenchmarkMicro_DeBruijnSCD_B12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(boolat.DeBruijnSCD(12)); got == 0 {
			b.Fatal("empty decomposition")
		}
	}
}

func BenchmarkMicro_LDDDecompose_Pi7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := chains.Decompose(6)
		if len(d.Groups) == 0 {
			b.Fatal("empty decomposition")
		}
	}
}

func BenchmarkMicro_PartitionAll_n9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(partition.All(9)); got != 21147 {
			b.Fatalf("got %d partitions", got)
		}
	}
}

func BenchmarkMicro_PartitionMeetJoin(b *testing.B) {
	all := partition.All(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := all[i%len(all)]
		q := all[(i*7+13)%len(all)]
		_ = p.Meet(q)
		_ = p.Join(q)
	}
}

func BenchmarkMicro_Bell25(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = combinat.Bell(25)
	}
}

func BenchmarkMicro_GramRBF_200x18(b *testing.B) {
	d := dataset.SyntheticBiometric(dataset.DefaultBiometricConfig(), stats.NewRNG(1))
	k := kernel.RBF{Gamma: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kernel.Gram(k, d.X)
	}
}

func BenchmarkMicro_SVMTrain_100(b *testing.B) {
	rng := stats.NewRNG(2)
	x := make([][]float64, 100)
	y := make([]int, 100)
	for i := range x {
		y[i] = 1
		if i%2 == 0 {
			y[i] = -1
		}
		x[i] = []float64{float64(y[i]) + rng.NormFloat64()*0.5, rng.NormFloat64()}
	}
	gram := kernel.Gram(kernel.RBF{Gamma: 1}, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (kernelmachine.SVM{C: 1}).Train(gram, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_RidgeTrain_200(b *testing.B) {
	rng := stats.NewRNG(3)
	x := make([][]float64, 200)
	y := make([]int, 200)
	for i := range x {
		y[i] = 1
		if i%2 == 0 {
			y[i] = -1
		}
		x[i] = []float64{float64(y[i]) + rng.NormFloat64()*0.5, rng.NormFloat64()}
	}
	gram := kernel.Gram(kernel.RBF{Gamma: 1}, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (kernelmachine.Ridge{}).Train(gram, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_ChainSearch_18features(b *testing.B) {
	d := dataset.SyntheticBiometric(dataset.DefaultBiometricConfig(), stats.NewRNG(4))
	d.Standardize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := mkl.NewEvaluator(d, mkl.Config{Objective: mkl.KernelAlignment, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mkl.ChainSearch(e, partition.Coarsest(d.D()), mkl.BestOfChain); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sequential vs parallel search on the synthetic biometric workload ---
//
// One benchmark per (strategy, parallelism) pair; compare e.g.
// BenchmarkParallel_ChainSearch_Seq with BenchmarkParallel_ChainSearch_W4
// to measure the speedup of Parallelism=4 over the sequential path. The
// selected partition and score are asserted identical inside the loop, so
// these benchmarks also re-check the determinism guarantee on every run.

func parallelBenchData(b *testing.B) *dataset.Dataset {
	b.Helper()
	cfg := dataset.DefaultBiometricConfig()
	cfg.N = 120
	d := dataset.SyntheticBiometric(cfg, stats.NewRNG(4))
	d.Standardize()
	return d
}

func benchChainSearch(b *testing.B, workers int) {
	d := parallelBenchData(b)
	seed := partition.Coarsest(d.D())
	ref, err := mkl.NewEvaluator(d, mkl.Config{Objective: mkl.CVAccuracy, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	want, err := mkl.ChainSearch(ref, seed, mkl.BestOfChain)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := mkl.NewEvaluator(d, mkl.Config{Objective: mkl.CVAccuracy, Seed: 1, Parallelism: workers})
		if err != nil {
			b.Fatal(err)
		}
		res, err := mkl.ChainSearch(e, seed, mkl.BestOfChain)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Best.Equal(want.Best) || res.Score != want.Score {
			b.Fatalf("workers=%d: (%v, %v), sequential (%v, %v)", workers, res.Best, res.Score, want.Best, want.Score)
		}
	}
}

func BenchmarkParallel_ChainSearch_Seq(b *testing.B) { benchChainSearch(b, 1) }
func BenchmarkParallel_ChainSearch_W2(b *testing.B)  { benchChainSearch(b, 2) }
func BenchmarkParallel_ChainSearch_W4(b *testing.B)  { benchChainSearch(b, 4) }

func benchExhaustiveCone(b *testing.B, workers int) {
	// 7-feature workload from the coarsest seed: the full cone is Bell(7) =
	// 877 candidate configurations.
	const m = 7
	rng := stats.NewRNG(4)
	d := &dataset.Dataset{}
	for i := 0; i < 120; i++ {
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
	seed := partition.Coarsest(m)
	ref, err := mkl.NewEvaluator(d, mkl.Config{Objective: mkl.KernelAlignment, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	want, err := mkl.ExhaustiveCone(ref, seed)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := mkl.NewEvaluator(d, mkl.Config{Objective: mkl.KernelAlignment, Seed: 1, Parallelism: workers})
		if err != nil {
			b.Fatal(err)
		}
		res, err := mkl.ExhaustiveCone(e, seed)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Best.Equal(want.Best) || res.Score != want.Score {
			b.Fatalf("workers=%d: (%v, %v), sequential (%v, %v)", workers, res.Best, res.Score, want.Best, want.Score)
		}
	}
}

func BenchmarkParallel_ExhaustiveCone_Seq(b *testing.B) { benchExhaustiveCone(b, 1) }
func BenchmarkParallel_ExhaustiveCone_W2(b *testing.B)  { benchExhaustiveCone(b, 2) }
func BenchmarkParallel_ExhaustiveCone_W4(b *testing.B)  { benchExhaustiveCone(b, 4) }

func BenchmarkParallel_RunCatalogueFast_Seq(b *testing.B) { benchCatalogue(b, 1) }
func BenchmarkParallel_RunCatalogueFast_W4(b *testing.B)  { benchCatalogue(b, 4) }

// --- scalar vs vectorized Gram engine on the synthetic biometric workload ---
//
// BenchmarkGram_* pairs measure the block-level Gram fast path against the
// pairwise Eval loop (see internal/kernel/blockgram.go), at the kernel
// level (one multiple-kernel configuration Gram) and at the search level
// (a full chain search, sequential and parallel). `make bench-json` turns
// these plus the BenchmarkParallel_* suite into BENCH_gram.json so the
// perf trajectory is tracked across PRs.

func gramBenchKernel(b *testing.B) (kernel.Kernel, *dataset.Dataset) {
	b.Helper()
	d := dataset.SyntheticBiometric(dataset.DefaultBiometricConfig(), stats.NewRNG(1))
	d.Standardize()
	k := kernel.FromPartition(d.ViewPartition(), kernel.RBFFactory(1.0), kernel.CombineSum)
	return k, d
}

// BenchmarkGram_Config_Scalar is the pairwise baseline: one Eval interface
// dispatch plus per-pair feature gathering for each of the n² pairs.
func BenchmarkGram_Config_Scalar(b *testing.B) {
	k, d := gramBenchKernel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kernel.GramPairwise(k, d.X)
	}
}

// BenchmarkGram_Config_Vector assembles the same configuration the way
// every exact scoring path does: a retention-disabled block cache builds
// each block's vectorized Gram into one reused block buffer and folds it
// into a reused output.
func BenchmarkGram_Config_Vector(b *testing.B) {
	_, d := gramBenchKernel(b)
	cache := kernel.NewBlockGramCache(d.X, kernel.RBFFactory(1.0), -1)
	p := d.ViewPartition()
	var sc kernel.AssemblyScratch
	out := cache.GramForPartitionScratch(p, kernel.CombineSum, nil, &sc) // size the output and block buffer before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = cache.GramForPartitionScratch(p, kernel.CombineSum, out, &sc)
	}
}

func BenchmarkGram_SingleRBF_Scalar(b *testing.B) {
	_, d := gramBenchKernel(b)
	k := kernel.RBF{Gamma: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kernel.GramPairwise(k, d.X)
	}
}

func BenchmarkGram_SingleRBF_Vector(b *testing.B) {
	_, d := gramBenchKernel(b)
	k := kernel.RBF{Gamma: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = kernel.Gram(k, d.X)
	}
}

// benchGramSearch runs a full chain search (CV-accuracy objective, fresh
// evaluator and Gram-block cache per iteration, so every iteration pays the
// block Gram computations) with the engine toggled between scalar and
// vectorized, sequential and parallel. The scalar leg builds Eval-only
// block kernels (pairwise Grams) and hides the trainer's scratch path, so
// each fold trains through the allocating Train.
func benchGramSearch(b *testing.B, workers int, scalar bool) {
	d := parallelBenchData(b)
	seed := partition.Coarsest(d.D())
	cfg := mkl.Config{Objective: mkl.CVAccuracy, Seed: 1, Parallelism: workers}
	if scalar {
		rbf := kernel.RBFFactory(1.0)
		cfg.Factory = func(feats []int) kernel.Kernel { return evalOnlyKernel{rbf(feats)} }
		cfg.Trainer = plainTrainer{kernelmachine.Ridge{Lambda: 1e-2}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := mkl.NewEvaluator(d, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mkl.ChainSearch(e, seed, mkl.BestOfChain); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGram_ChainSearch_ScalarSeq(b *testing.B) { benchGramSearch(b, 1, true) }
func BenchmarkGram_ChainSearch_VectorSeq(b *testing.B) { benchGramSearch(b, 1, false) }
func BenchmarkGram_ChainSearch_ScalarW4(b *testing.B)  { benchGramSearch(b, 4, true) }
func BenchmarkGram_ChainSearch_VectorW4(b *testing.B)  { benchGramSearch(b, 4, false) }

// --- candidate-evaluation fast path (zero-alloc CV pipeline) ---
//
// BenchmarkScore_* measures one steady-state candidate evaluation — the
// unit of work the lattice search repeats per lattice point: Gram assembly
// from the block cache plus the objective (k-fold CV or centered
// alignment). The *_Reference variants hide the trainer's ScratchTrainer
// implementation, so the one CV fold loop trains each fold through the
// allocating Train (a fresh Scratch per fold) instead of TrainScratch in
// evaluator scratch; the gap to the plain variants is the cost of those
// per-fold training buffers. The score cache is cleared inside the loop so
// every iteration pays a full evaluation from warmed scratch.

// plainTrainer hides a trainer's ScratchTrainer implementation, so the
// evaluator's fold body trains through plain Train.
type plainTrainer struct{ kernelmachine.Trainer }

// evalOnlyKernel hides a kernel's BlockGramKernel implementation, pinning
// every Gram to the pairwise Eval path.
type evalOnlyKernel struct{ kernel.Kernel }

func benchScore(b *testing.B, cfg mkl.Config) {
	d := parallelBenchData(b)
	e, err := mkl.NewEvaluator(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := d.ViewPartition()
	// Warm the Gram-block cache and every scratch buffer.
	want, err := e.Score(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ClearScoreCache()
		s, err := e.Score(p)
		if err != nil {
			b.Fatal(err)
		}
		if s != want {
			b.Fatalf("score drifted across iterations: %v != %v", s, want)
		}
	}
}

func BenchmarkScore_CVRidge(b *testing.B) {
	benchScore(b, mkl.Config{Objective: mkl.CVAccuracy, Seed: 1})
}

func BenchmarkScore_CVRidge_Reference(b *testing.B) {
	benchScore(b, mkl.Config{
		Objective: mkl.CVAccuracy, Seed: 1,
		Trainer: plainTrainer{kernelmachine.Ridge{}},
	})
}

func BenchmarkScore_CVSMO(b *testing.B) {
	benchScore(b, mkl.Config{
		Objective: mkl.CVAccuracy, Seed: 1,
		Trainer: kernelmachine.SVM{C: 1, Seed: 1},
	})
}

func BenchmarkScore_CVSMO_Reference(b *testing.B) {
	benchScore(b, mkl.Config{
		Objective: mkl.CVAccuracy, Seed: 1,
		Trainer: plainTrainer{kernelmachine.SVM{C: 1, Seed: 1}},
	})
}

func BenchmarkScore_Alignment(b *testing.B) {
	benchScore(b, mkl.Config{Objective: mkl.KernelAlignment, Seed: 1})
}

// BenchmarkFit_OptionsOverhead measures the same steady-state candidate
// evaluation as BenchmarkScore_CVRidge, but through the redesigned Fit
// plumbing: the configuration assembled by functional options, a bound
// cancellable context polled per candidate, and — because Score itself
// does not emit (the search loop does, via observe) — one per-candidate
// progress emission mirrored inline, exactly the Event construction and
// callback invocation the search performs per scored configuration. Its
// ns/op and allocs/op must match BenchmarkScore_CVRidge — the options and
// progress plumbing is free on the hot path (the alloc half is asserted
// hard by mkl's TestProgressAndContextPlumbingAddsNoAllocs and by
// cmd/benchjson's regression gate over this snapshot).
func BenchmarkFit_OptionsOverhead(b *testing.B) {
	d := parallelBenchData(b)
	var cfg core.FitConfig
	var events int64
	for _, o := range []Option{
		WithObjective(CVAccuracy),
		WithLearner(RidgeLearner(1e-2)),
		WithKernelFamily(RBFKernels(1.0)),
		WithCombiner(CombineSum),
		WithFolds(4),
		WithCVSeed(1),
		WithProgress(func(Event) { events++ }),
	} {
		o(&cfg)
	}
	e, err := mkl.NewEvaluator(d, cfg.MKL)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.SetContext(ctx)
	emit := cfg.MKL.Progress
	p := d.ViewPartition()
	want, err := e.Score(p) // warm the Gram-block cache and scratch
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ClearScoreCache()
		s, err := e.Score(p)
		if err != nil {
			b.Fatal(err)
		}
		if s != want {
			b.Fatalf("score drifted across iterations: %v != %v", s, want)
		}
		emit(Event{
			Kind: EventCandidateEvaluated, Time: time.Now(),
			Partition: p, Score: s, Best: p, BestScore: s, Evaluations: i,
		})
	}
	b.StopTimer()
	if events != int64(b.N) {
		b.Fatalf("progress callback fired %d times over %d iterations", events, b.N)
	}
}

// BenchmarkScore_ServeBatch measures one steady-state inference batch the
// serving stack executes per coalesced /predict batch: a 64-row vectorized
// cross-Gram against the training rows plus one matrix-vector product, in
// reused predictor scratch (internal/model.Predictor — the engine under
// internal/serve's worker pool).
func BenchmarkScore_ServeBatch(b *testing.B) {
	d := parallelBenchData(b)
	p := d.ViewPartition()
	k := kernel.FromPartition(p, kernel.RBFFactory(1.0), kernel.CombineSum)
	m, err := (kernelmachine.Ridge{}).Train(kernel.Gram(k, d.X), d.Y)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := kernel.ToSpec(k)
	if err != nil {
		b.Fatal(err)
	}
	art := &model.Artifact{
		LearnerKind: model.LearnerRidge,
		Partition:   p,
		KernelSpec:  spec,
		TrainX:      d.Matrix(),
		Coeff:       m.Coefficients(),
		Bias:        m.Bias(),
	}
	pred, err := model.NewPredictor(art)
	if err != nil {
		b.Fatal(err)
	}
	batch := d.X[:64]
	var scores []float64
	if scores, err = pred.ScoresInto(scores, batch); err != nil {
		b.Fatal(err) // warm the scratch before timing
	}
	want := scores[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, err = pred.ScoresInto(scores, batch)
		if err != nil {
			b.Fatal(err)
		}
		if scores[0] != want {
			b.Fatalf("score drifted across iterations: %v != %v", scores[0], want)
		}
	}
}

// serveBenchArtifact builds the same deployable artifact
// BenchmarkScore_ServeBatch scores, for registering under multiple model
// ids.
func serveBenchArtifact(b *testing.B) (*model.Artifact, *dataset.Dataset) {
	b.Helper()
	d := parallelBenchData(b)
	p := d.ViewPartition()
	k := kernel.FromPartition(p, kernel.RBFFactory(1.0), kernel.CombineSum)
	m, err := (kernelmachine.Ridge{}).Train(kernel.Gram(k, d.X), d.Y)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := kernel.ToSpec(k)
	if err != nil {
		b.Fatal(err)
	}
	return &model.Artifact{
		LearnerKind: model.LearnerRidge,
		Partition:   p,
		KernelSpec:  spec,
		TrainX:      d.Matrix(),
		Coeff:       m.Coefficients(),
		Bias:        m.Bias(),
	}, d
}

// benchServeMultiModel measures one end-to-end ScoreBatch request through
// the multi-model serving stack — admission, per-model routing, the
// pipeline queue, and a worker scoring an 8-row batch — round-robined
// across n registered models. Compare _2 with _8 to see what fleet width
// costs per request (it should be flat: routing is one map lookup plus an
// atomic pointer load). One worker per model and sequential requests make
// every batch a single request, which keeps allocs/op deterministic for
// the bench-json regression gate.
func benchServeMultiModel(b *testing.B, n int) {
	art, d := serveBenchArtifact(b)
	reg := NewServeRegistry()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "m" + string(rune('0'+i))
		if err := reg.Load(ids[i], art); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := Serve(context.Background(), reg, WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	// Stop the timer before the deferred Close, so shutting the fleet down
	// is not billed to the last b.N requests.
	defer func() {
		b.StopTimer()
		srv.Close()
	}()
	batch := d.X[:8]
	want, err := srv.ScoreBatch(ids[0], batch) // warm every pipeline's scratch
	if err != nil {
		b.Fatal(err)
	}
	for _, id := range ids[1:] {
		if _, err := srv.ScoreBatch(id, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, err := srv.ScoreBatch(ids[i%n], batch)
		if err != nil {
			b.Fatal(err)
		}
		if scores[0] != want[0] {
			b.Fatalf("score drifted across iterations: %v != %v", scores[0], want[0])
		}
	}
}

func BenchmarkServe_MultiModel2(b *testing.B) { benchServeMultiModel(b, 2) }
func BenchmarkServe_MultiModel8(b *testing.B) { benchServeMultiModel(b, 8) }

func benchCatalogue(b *testing.B, workers int) {
	// Mirror cmd/iotml's `run all`: the catalogue level gets the whole
	// budget and rows inside each experiment run sequentially, so the
	// benchmark measures the configuration the CLI actually ships.
	experiments.SetParallelism(1)
	defer experiments.SetParallelism(0)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunCatalogue(true, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// --- approximate Gram engine at scale (ISSUE 7 / ROADMAP item 1) ---
//
// BenchmarkGramApprox_* measures the low-rank engine against the exact
// path at n ∈ {1k, 10k}: an exhaustive cone over a 5-feature synthetic
// workload under the alignment objective (the objective whose exact twin
// is still affordable at 1k for a same-workload comparison; 10k runs
// approx-only — the exact cone there is exactly the O(n²) wall the engine
// removes). Joined into BENCH_gram.json by `make bench-json` and gated by
// -fail-on-regress like every other suite.

// gramApproxData synthesizes the n×5 two-class workload the approx benches
// and the budgeted-search acceptance test share.
func gramApproxData(n int) *dataset.Dataset {
	const m = 5
	rng := stats.NewRNG(11)
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

// --- numeric backends (ISSUE 9 / ROADMAP item 4) ---
//
// BenchmarkBackend_* measures the three numeric backends on the same
// n=1k 5-feature cone: the exact f64 reference, the f32 fast path (f32
// storage, f64 accumulation — the headline is F32 beating F64 on memory
// traffic), and the Nyström approx backend re-mounted behind
// Config.Backend. Same workload and cone as BenchmarkGramApprox_* so the
// two suites stay comparable in BENCH_gram.json.

func benchBackendCone(b *testing.B, n int, backend engine.Backend) {
	d := gramApproxData(n)
	seed := partition.Coarsest(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := mkl.NewEvaluator(d, mkl.Config{
			Objective: mkl.KernelAlignment, Seed: 1, Parallelism: 1,
			Backend: backend,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := mkl.ExhaustiveCone(e, seed)
		if err != nil {
			b.Fatal(err)
		}
		if res.Evaluations != 52 { // Bell(5) candidates per cone
			b.Fatalf("cone evaluated %d candidates, want 52", res.Evaluations)
		}
	}
}

func BenchmarkBackend_F64Cone1k(b *testing.B)    { benchBackendCone(b, 1000, engine.Float64) }
func BenchmarkBackend_F32Cone1k(b *testing.B)    { benchBackendCone(b, 1000, engine.Float32) }
func BenchmarkBackend_ApproxCone1k(b *testing.B) { benchBackendCone(b, 1000, engine.Nystrom(32)) }

func BenchmarkGramApprox_Exact1k(b *testing.B)   { benchBackendCone(b, 1000, engine.Float64) }
func BenchmarkGramApprox_Nystrom1k(b *testing.B) { benchBackendCone(b, 1000, engine.Nystrom(32)) }
func BenchmarkGramApprox_RFF1k(b *testing.B)     { benchBackendCone(b, 1000, engine.RFF(64)) }
func BenchmarkGramApprox_Nystrom10k(b *testing.B) {
	benchBackendCone(b, 10000, engine.Nystrom(32))
}
