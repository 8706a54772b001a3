// Command iotml regenerates the paper's tables, figures, and quantitative
// claims.
//
// Usage:
//
//	iotml [-parallel N] list               list the experiment catalogue
//	iotml [-parallel N] run all [--fast]   run every experiment (--fast skips expensive ones)
//	iotml [-parallel N] run E7             run one experiment by id
//	iotml table1                           print Table I (alias for run E1)
//	iotml figure2 [--dot]                  print Figure 2 (or its DOT rendering)
//	iotml debruijn <n>                     print the de Bruijn SCD of B_n
//	iotml fit -o model.iotml ...           fit and persist a model artifact
//	                                       (-data train.csv for real data,
//	                                       -v / -progress-jsonl for progress)
//	iotml predict -m model.iotml ...       score JSON instances offline
//	iotml serve -m model.iotml -addr :8080 serve the batched inference API
//	                                       (SIGINT/SIGTERM drains, exits 0)
//	iotml serve -models dir/ -addr :8080   serve every *.iotml in dir with
//	                                       hot-reload and per-model routing
//	iotml search-worker -addr :7600        run a distributed-search worker
//	                                       (pair with fit -dist-workers)
//
// -parallel N bounds total concurrency: `run all` spends the budget across
// experiments (independent experiments run concurrently, their rows
// sequentially), while single-experiment runs spend it across the rows
// inside the experiment; 0 (the default) means all available cores, 1
// forces fully sequential execution. Output is identical at every setting
// (only E7's wall-clock ms column varies run to run).
package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/retry"
)

func main() {
	// The CLI edge is the one place wall-clock seeding is wanted: spread
	// the shared retry-jitter schedule across processes so fleet replicas
	// don't back off in lockstep. Libraries and tests keep the package's
	// deterministic default.
	retry.Seed(time.Now().UnixNano())
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iotml:", err)
		os.Exit(1)
	}
}

// parseParallel strips a -parallel/--parallel flag (as "-parallel N" or
// "-parallel=N") from args, returning the remaining arguments and the
// requested worker count (0 when absent, meaning all cores).
func parseParallel(args []string) ([]string, int, error) {
	rest := make([]string, 0, len(args))
	workers := 0
	for i := 0; i < len(args); i++ {
		a := args[i]
		name, val, eq := strings.Cut(a, "=")
		if name != "-parallel" && name != "--parallel" {
			rest = append(rest, a)
			continue
		}
		if !eq {
			if i+1 >= len(args) {
				return nil, 0, fmt.Errorf("-parallel needs a worker count")
			}
			i++
			val = args[i]
		}
		v, err := strconv.Atoi(val)
		if err != nil || v < 0 {
			return nil, 0, fmt.Errorf("-parallel needs a non-negative integer, got %q", val)
		}
		workers = v
	}
	return rest, workers, nil
}

func run(args []string) error {
	args, workers, err := parseParallel(args)
	if err != nil {
		return err
	}
	experiments.SetParallelism(workers)
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
	case "list":
		for _, r := range experiments.All() {
			tag := ""
			if r.Expensive {
				tag = "  (expensive)"
			}
			fmt.Printf("  %-4s %s%s\n", r.ID, r.Title, tag)
		}
		return nil
	case "run":
		if len(args) < 2 {
			return fmt.Errorf("run needs an experiment id or 'all'")
		}
		if args[1] == "all" {
			fast := len(args) > 2 && args[2] == "--fast"
			// The catalogue level gets the whole -parallel budget; rows
			// inside each experiment run sequentially so total concurrency
			// stays bounded by N rather than N².
			experiments.SetParallelism(1)
			results, err := experiments.RunCatalogue(fast, workers)
			if err != nil {
				return err
			}
			for _, res := range results {
				if res.Table == nil {
					fmt.Printf("%s — skipped (--fast)\n\n", res.Runner.ID)
					continue
				}
				fmt.Println(res.Table)
			}
			return nil
		}
		r, ok := experiments.ByID(args[1])
		if !ok {
			return fmt.Errorf("unknown experiment %q (try 'iotml list')", args[1])
		}
		return runOne(r)
	case "table1":
		fmt.Println(experiments.Table1())
		return nil
	case "figure2":
		if len(args) > 1 && args[1] == "--dot" {
			fmt.Print(experiments.FigureLatticeDOT(4))
			return nil
		}
		fmt.Println(experiments.Figure2())
		return nil
	case "fit":
		return runFit(args[1:], workers)
	case "predict":
		return runPredict(args[1:])
	case "serve":
		return runServe(args[1:])
	case "search-worker":
		return runSearchWorker(args[1:], workers)
	case "debruijn":
		n := 3
		if len(args) > 1 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 0 || v > 16 {
				return fmt.Errorf("debruijn needs n in [0,16]")
			}
			n = v
		}
		fmt.Println(experiments.DeBruijnTable(n))
		return nil
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		return fmt.Errorf("unknown command %q (try 'iotml help')", args[0])
	}
}

func runOne(r experiments.Runner) error {
	tab, err := r.Run()
	if err != nil {
		return fmt.Errorf("%s: %w", r.ID, err)
	}
	fmt.Println(tab)
	return nil
}

func usage() {
	fmt.Println(`iotml — reproduction harness for "Toward IoT-Friendly Learning Models" (ICDCS 2018)

commands:
  list               list the experiment catalogue
  run all [--fast]   run every experiment (--fast skips expensive ones)
  run <id>           run one experiment (e.g. run E7)
  table1             print the paper's Table I
  figure2 [--dot]    print the paper's Figure 2 (optionally as GraphViz DOT)
  debruijn <n>       print the de Bruijn symmetric chain decomposition of B_n
  fit -o m.iotml     fit a model and save it as a versioned artifact
                     (-workload -n -seed -learner -kernel -combiner -search,
                     or -data train.csv|.jsonl -label -features -views -nan
                     for real data; -backend exact|f32|nystrom:256|rff:128|auto
                     picks the numeric backend (f32 halves Gram memory
                     traffic, nystrom/rff score on low-rank factors for
                     large n, auto picks from the workload size),
                     -budget-topk 8 re-scores the top
                     survivors exactly; -v streams live progress,
                     -progress-jsonl FILE captures the event stream;
                     Ctrl-C aborts at the next candidate; see fit -h)
  predict -m m.iotml score JSON instances offline (reads {"instances": [...]}
                     from -in file or stdin, writes {"scores","labels"})
  serve -m m.iotml   serve the batched HTTP inference API on -addr (default
                     :8080): GET /v1/healthz, GET /v1/models,
                     POST /v1/models/{id}/predict, GET /v1/metrics;
                     SIGINT/SIGTERM drains in-flight batches and exits 0
  serve -models dir/ serve every *.iotml artifact in dir (model id = file
                     name); the directory is polled (-reload, default 2s)
                     and changed artifacts hot-swap atomically with zero
                     dropped requests; -queue/-global-queue bound load
                     shedding
  search-worker      run one distributed-search worker on -addr (default
                     :7600); "fit -dist-workers host:port,..." shards
                     candidate scoring across such workers with retry,
                     re-dispatch, and local fallback — the selection is
                     bit-identical to an in-process fit

flags:
  -parallel N        worker pool size for run all and per-experiment rows
                     (0 = all cores, the default; 1 = fully sequential;
                     output is deterministic at every setting)`)
}
