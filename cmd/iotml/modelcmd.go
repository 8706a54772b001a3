// Model lifecycle subcommands: fit persists a trained model artifact,
// predict scores instances against one offline, serve exposes it as the
// batched HTTP inference service (internal/serve) — the train-once/
// serve-forever split on the command line.
//
// fit drives the public iotml.Fit API end to end: synthetic workloads or
// real CSV/JSONL data (-data with a declarative schema via -label,
// -features, -views, -nan), live progress (-v), a machine-readable
// progress sink (-progress-jsonl), and context cancellation. serve installs
// a SIGINT/SIGTERM handler that drains in-flight micro-batches through the
// same context plumbing before exiting 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"

	iotml "repro"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
)

// buildWorkload generates one of the synthetic faceted workloads,
// standardized the way the experiments and examples consume them.
func buildWorkload(workload string, n int, seed int64) (*iotml.Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	var d *iotml.Dataset
	switch workload {
	case "biometric":
		cfg := dataset.DefaultBiometricConfig()
		if n > 0 {
			cfg.N = n
		}
		d = dataset.SyntheticBiometric(cfg, rng)
	case "surface":
		cfg := dataset.DefaultSurfaceConfig()
		if n > 0 {
			cfg.N = n
		}
		d = dataset.SyntheticObjectSurface(cfg, rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (biometric|surface)", workload)
	}
	d.Standardize()
	return d, nil
}

// parseViews reads the CLI view syntax "name:col1,col2;name2:col3".
func parseViews(spec string) ([]iotml.SchemaView, error) {
	if spec == "" {
		return nil, nil
	}
	var views []iotml.SchemaView
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, cols, ok := strings.Cut(part, ":")
		if !ok || strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("bad view %q (want name:col1,col2)", part)
		}
		v := iotml.SchemaView{Name: strings.TrimSpace(name)}
		for _, c := range strings.Split(cols, ",") {
			if c = strings.TrimSpace(c); c != "" {
				v.Columns = append(v.Columns, c)
			}
		}
		if len(v.Columns) == 0 {
			return nil, fmt.Errorf("view %q has no columns", v.Name)
		}
		views = append(views, v)
	}
	return views, nil
}

// loadData ingests a CSV or JSONL training file (by extension) under the
// schema assembled from the CLI flags.
func loadData(path, label, features, views, nanPolicy string) (*iotml.Dataset, error) {
	nan, err := dataset.ParseNaNPolicy(nanPolicy)
	if err != nil {
		return nil, err
	}
	vs, err := parseViews(views)
	if err != nil {
		return nil, err
	}
	s := iotml.Schema{Label: label, Views: vs, NaN: nan}
	if features != "" {
		for _, f := range strings.Split(features, ",") {
			if f = strings.TrimSpace(f); f != "" {
				s.Features = append(s.Features, f)
			}
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".jsonl", ".ndjson":
		return iotml.ReadJSONL(f, s)
	default:
		return iotml.ReadCSV(f, s)
	}
}

func buildSearch(search string) (iotml.SearchStrategy, error) {
	switch search {
	case "chain":
		return iotml.SearchChain, nil
	case "chain-first":
		return iotml.SearchChainFirstImprovement, nil
	case "greedy":
		return iotml.SearchGreedy, nil
	case "exhaustive":
		return iotml.SearchExhaustive, nil
	default:
		return 0, fmt.Errorf("unknown search %q (chain|chain-first|greedy|exhaustive)", search)
	}
}

// progressEvent is the machine-readable JSONL rendering of one fit event.
type progressEvent struct {
	Time        string  `json:"time"`
	Kind        string  `json:"kind"`
	Partition   string  `json:"partition"`
	Score       float64 `json:"score"`
	Best        string  `json:"best"`
	BestScore   float64 `json:"best_score"`
	Evaluations int     `json:"evaluations"`
	// Detail carries the dist-* events' human-readable payload (shard
	// range, worker address, failure reason); empty otherwise.
	Detail string `json:"detail,omitempty"`
}

// progressSink assembles the fit's progress callback from the -v and
// -progress-jsonl flags. cleanup flushes and closes the JSONL file; cb is
// nil when no progress output was requested.
func progressSink(verbose bool, jsonlPath string) (cb func(iotml.Event), cleanup func() error, err error) {
	var sinks []func(iotml.Event)
	if verbose {
		sinks = append(sinks, func(ev iotml.Event) {
			switch ev.Kind {
			case iotml.EventSeedSelected:
				fmt.Fprintf(os.Stderr, "fit: seed %v\n", ev.Partition)
			case iotml.EventCandidateEvaluated:
				fmt.Fprintf(os.Stderr, "fit: [%3d] %v score=%.4f  best=%.4f %v\n",
					ev.Evaluations, ev.Partition, ev.Score, ev.BestScore, ev.Best)
			case iotml.EventBestImproved:
				fmt.Fprintf(os.Stderr, "fit: [%3d] best improved to %.4f at %v\n",
					ev.Evaluations, ev.BestScore, ev.Best)
			case iotml.EventSearchFinished:
				fmt.Fprintf(os.Stderr, "fit: search finished: best=%.4f %v after %d evaluations\n",
					ev.BestScore, ev.Best, ev.Evaluations)
			case iotml.EventShardDispatched, iotml.EventShardRetried,
				iotml.EventShardRedispatched, iotml.EventWorkerDown, iotml.EventDistFallback:
				fmt.Fprintf(os.Stderr, "fit: dist: %s: %s\n", ev.Kind, ev.Detail)
			}
		})
	}
	cleanup = func() error { return nil }
	if jsonlPath != "" {
		f, ferr := os.Create(jsonlPath)
		if ferr != nil {
			return nil, nil, fmt.Errorf("progress sink: %w", ferr)
		}
		enc := json.NewEncoder(f)
		// A failed write (disk full, quota) must not silently truncate the
		// stream: remember the first encode error and surface it when the
		// sink is closed, failing the fit command.
		var encErr error
		sinks = append(sinks, func(ev iotml.Event) {
			if encErr != nil {
				return
			}
			encErr = enc.Encode(progressEvent{
				Time:        ev.Time.Format("2006-01-02T15:04:05.000000000Z07:00"),
				Kind:        ev.Kind.String(),
				Partition:   ev.Partition.String(),
				Score:       ev.Score,
				Best:        ev.Best.String(),
				BestScore:   ev.BestScore,
				Evaluations: ev.Evaluations,
				Detail:      ev.Detail,
			})
		})
		cleanup = func() error {
			closeErr := f.Close()
			if encErr != nil {
				return fmt.Errorf("progress sink %s: %w", jsonlPath, encErr)
			}
			if closeErr != nil {
				return fmt.Errorf("progress sink %s: %w", jsonlPath, closeErr)
			}
			return nil
		}
	}
	if len(sinks) == 0 {
		return nil, cleanup, nil
	}
	return func(ev iotml.Event) {
		for _, s := range sinks {
			s(ev)
		}
	}, cleanup, nil
}

// runFit implements `iotml fit`: run the paper's partition-driven MKL fit
// on a synthetic workload or a user-supplied CSV/JSONL file and persist
// the deployment model as an artifact.
func runFit(args []string, workers int) (retErr error) {
	fs := flag.NewFlagSet("fit", flag.ContinueOnError)
	out := fs.String("o", "", "output artifact path (required), e.g. model.iotml")
	workload := fs.String("workload", "biometric", "synthetic workload: biometric|surface (ignored with -data)")
	data := fs.String("data", "", "train on a CSV/JSONL file instead of a synthetic workload")
	label := fs.String("label", "label", "label column for -data")
	features := fs.String("features", "", "comma-separated feature columns for -data (default: all non-label columns)")
	views := fs.String("views", "", `facet boundaries for -data: "face:f1,f2;iris:f3"`)
	nanPolicy := fs.String("nan", "reject", "NaN/missing-cell policy for -data: reject|missing|drop")
	standardize := fs.Bool("standardize", true, "standardize -data features to zero mean, unit variance")
	n := fs.Int("n", 0, "instances to generate (0 = workload default)")
	seed := fs.Int64("seed", 1, "workload generator seed")
	learner := fs.String("learner", "ridge", "learner: ridge|svm|perceptron")
	svmC := fs.Float64("svm-c", 1, "SVM soft-margin penalty (0 = 1)")
	kernelKind := fs.String("kernel", "rbf", "block kernel: rbf|linear|norm-rbf")
	gamma := fs.Float64("gamma", 1.0, "RBF base bandwidth (gamma/|block|; 0 = 1.0)")
	combiner := fs.String("combiner", "sum", "block combiner: sum|product")
	search := fs.String("search", "chain", "lattice search: chain|chain-first|greedy|exhaustive")
	backendSpec := fs.String("backend", "exact", "numeric backend: exact|f32|nystrom[:rank]|rff[:rank]|auto (auto picks from the workload size)")
	budgetTopK := fs.Int("budget-topk", 0, "with an approximate backend: re-score the top K candidates exactly before selecting (0 = off)")
	folds := fs.Int("folds", 0, "CV folds (0 = default 4)")
	verbose := fs.Bool("v", false, "stream live search progress to stderr")
	progressJSONL := fs.String("progress-jsonl", "", "write the progress event stream to this file as JSON lines")
	distWorkers := fs.String("dist-workers", "", `distribute candidate scoring across search-worker processes: "host:port,host:port"`)
	distDeadline := fs.Duration("dist-deadline", 0, "per-shard attempt deadline for -dist-workers (0 = default 2m)")
	distAttempts := fs.Int("dist-attempts", 0, "per-worker tries per shard before the worker is marked down (0 = default 3)")
	distShard := fs.Int("dist-shard", 0, "candidates per dispatched shard (0 = about two shards per worker per batch)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile (pprof) of the fit, from loading the data through saving the artifact, to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("fit: -o output path is required")
	}
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			return fmt.Errorf("fit: %w", err)
		}
		// The profile ends when the fit does, failed or not; a profile
		// that cannot be written fails a fit that succeeded.
		defer func() {
			if err := stop(); err != nil && retErr == nil {
				retErr = fmt.Errorf("fit: %w", err)
			}
		}()
	}
	var d *iotml.Dataset
	var err error
	if *data != "" {
		d, err = loadData(*data, *label, *features, *views, *nanPolicy)
		if err == nil && *standardize {
			d.Standardize()
		}
	} else {
		d, err = buildWorkload(*workload, *n, *seed)
	}
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	strategy, err := buildSearch(*search)
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	var backend iotml.Backend
	if *backendSpec == "auto" {
		// Resolve against the loaded workload so a distributed fleet is
		// handed a concrete spelling, never "auto".
		backend = iotml.AutoBackend(d, iotml.CVAccuracy)
	} else if backend, err = iotml.ParseBackend(*backendSpec); err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	if *budgetTopK > 0 && !backend.IsApprox() {
		return fmt.Errorf("fit: -budget-topk requires an approximate backend (-backend nystrom[:rank] or rff[:rank])")
	}
	// One flag-to-config mapping: the in-process fit expands the same
	// spec a distributed fleet receives, so adding -dist-workers never
	// changes what a command line selects.
	spec := iotml.DistSpec{
		Learner:  *learner,
		SVMC:     *svmC,
		SVMSeed:  *seed,
		Kernel:   *kernelKind,
		Gamma:    *gamma,
		Combiner: *combiner,
		Folds:    *folds,
		Backend:  backend.String(),
	}
	mklCfg, err := spec.Config()
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	mklCfg.Parallelism = workers
	opts := []iotml.Option{iotml.WithConfig(iotml.FitConfig{Search: strategy, BudgetTopK: *budgetTopK, MKL: mklCfg})}
	if *distWorkers != "" {
		var fleet []string
		for _, w := range strings.Split(*distWorkers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				fleet = append(fleet, w)
			}
		}
		if len(fleet) == 0 {
			return fmt.Errorf("fit: -dist-workers has no worker addresses")
		}
		opts = append(opts, iotml.WithDistributedWorkers(iotml.DistOptions{
			Workers:   fleet,
			Spec:      spec,
			ShardSize: *distShard,
			Deadline:  *distDeadline,
			Attempts:  *distAttempts,
		}))
	}
	progress, closeSink, err := progressSink(*verbose, *progressJSONL)
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	if progress != nil {
		opts = append(opts, iotml.WithProgress(progress))
	}
	// Ctrl-C aborts the search at the next candidate boundary; the partial
	// best-so-far is reported but not persisted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := iotml.Fit(ctx, d, opts...)
	if sinkErr := closeSink(); sinkErr != nil && err == nil {
		err = sinkErr
	}
	if err != nil {
		if res != nil {
			fmt.Fprintf(os.Stderr, "fit: aborted after %d evaluations; best so far %v (%.4f), not persisted\n",
				res.Evaluations, res.Best, res.Score)
		}
		return fmt.Errorf("fit: %w", err)
	}
	art, err := res.Artifact()
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	if err := art.SaveFile(*out); err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	source := *data
	if source == "" {
		source = fmt.Sprintf("workload=%s seed=%d", *workload, *seed)
	}
	fmt.Printf("fit: %s n=%d d=%d learner=%s\n", source, d.N(), d.D(), *learner)
	fmt.Printf("seed partition: %v (attrs %v)\n", res.Seed, res.SeedAttrs)
	fmt.Printf("best partition: %v  cv-score=%.4f  evaluations=%d\n", res.Best, res.Score, res.Evaluations)
	fmt.Printf("artifact: %s (%s, %d training rows, %d features)\n", *out, art.Learner, art.NumTrain(), art.Dim())
	return nil
}

// startCPUProfile starts a CPU profile into the file at path and returns
// the func that stops it and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		return nil
	}, nil
}

// runPredict implements `iotml predict`: offline batch scoring of JSON
// instances against a saved artifact. The request and response shapes are
// exactly the serving API's, so a predict dry run and a /predict call are
// interchangeable.
func runPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	mpath := fs.String("m", "", "model artifact path (required)")
	in := fs.String("in", "-", "JSON request file ({\"instances\": [[...], ...]}), - for stdin")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mpath == "" {
		return fmt.Errorf("predict: -m model path is required")
	}
	art, err := model.LoadFile(*mpath)
	if err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		defer f.Close()
		r = f
	}
	rows, err := serve.DecodePredictRequest(r, art.Dim())
	if err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	pred, err := model.NewPredictor(art)
	if err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	scores, err := pred.Scores(rows)
	if err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(serve.PredictResponse{Scores: scores, Labels: model.Labels(scores)})
}

// runServe implements `iotml serve`: serve one artifact (-m) or a watched
// directory of artifacts (-models) as the batched multi-model inference
// API until the process is stopped. With -models, changed files hot-swap
// atomically while the previous model drains. SIGINT/SIGTERM trigger a
// graceful shutdown — the listener stops accepting, in-flight
// micro-batches drain, workers exit — and the process exits 0.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	mpath := fs.String("m", "", "model artifact path (serves it as model id \"default\")")
	modelsDir := fs.String("models", "", "directory of *.iotml artifacts to serve and watch for changes")
	addr := fs.String("addr", ":8080", "listen address")
	maxBatch := fs.Int("max-batch", 0, "max instances per scoring batch (0 = default 64)")
	workers := fs.Int("workers", 0, "scoring workers per model (0 = default 2)")
	queue := fs.Int("queue", 0, "per-model pending request queue depth; overflow sheds 429 (0 = default 256)")
	globalQueue := fs.Int("global-queue", 0, "max in-flight predictions across all models; overflow sheds 503 (0 = default 1024)")
	reload := fs.Duration("reload", 0, "model directory poll interval for hot-reload (0 = default 2s)")
	drain := fs.Duration("drain", 0, "graceful shutdown drain timeout (0 = default 10s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*mpath == "") == (*modelsDir == "") {
		return fmt.Errorf("serve: exactly one of -m (single artifact) or -models (artifact directory) is required")
	}

	opts := []serve.Option{
		serve.WithMaxBatch(*maxBatch),
		serve.WithWorkers(*workers),
		serve.WithQueueDepth(*queue),
		serve.WithGlobalQueueDepth(*globalQueue),
		serve.WithDrainTimeout(*drain),
		serve.WithReloadInterval(*reload),
	}
	reg := serve.NewRegistry()
	if *mpath != "" {
		if err := reg.LoadFile("default", *mpath); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	} else {
		opts = append(opts, serve.WithModelDir(*modelsDir))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv, err := serve.New(ctx, reg, opts...)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer srv.Close()
	if *mpath != "" {
		fmt.Printf("serving %s on %s\n", *mpath, *addr)
	} else {
		fmt.Printf("serving %d models from %s on %s (hot-reload on)\n", reg.Len(), *modelsDir, *addr)
	}
	for _, id := range reg.IDs() {
		if info, ok := reg.Info(id); ok {
			fmt.Printf("  model %s: %s, %d features, fingerprint %s\n", id, info.LearnerKind, info.Dim, info.Fingerprint)
		}
	}
	fmt.Printf("endpoints: GET /v1/healthz  GET /v1/models  GET /v1/models/{id}  POST /v1/models/{id}/predict  GET /v1/metrics  (SIGINT/SIGTERM drains and exits 0)\n")
	if err := srv.ListenAndServeContext(ctx, *addr); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	m := srv.Totals()
	fmt.Printf("serve: shutdown complete (drained cleanly; %d requests, %d batches, %d shed, %d swaps)\n",
		m.Requests, m.Batches, m.Shed, m.Swaps)
	return nil
}
