// Command perfbench is the repository's end-to-end benchmark: it times the
// paths users run — a fit from CSV bytes to a saved artifact, in process
// and over a search-worker fleet, and predict round trips over loopback
// HTTP — and, in a separate traced run, splits that time across the
// layers. See README.md for the workloads and metrics.
//
//	perfbench --workload fit-solve --seed 1 --seconds 15 --trace 0
//	perfbench compare results/a.json results/b.json
//
// The last line of standard output is the JSON result; the lines before
// it are the environment stamp and a human-readable table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outDir is where a run leaves its result file and its spans, relative
// to the checkout the benchmark runs from.
const outDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one benchmark run: the result line, the human-readable
// table and, for a traced run, its spans.
type run struct {
	report
	broken bool // a check outside the counted operations failed
	notes  []string
	tracer *tracer
}

func (r *run) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *run) note(name string, v float64, unit, detail string) {
	r.notes = append(r.notes, fmt.Sprintf("%-32s %14.4f %-9s %s", name, v, unit, detail))
}

// setOp sets the per-operation end-to-end metrics from the latencies (ms)
// of the measured operations, the bytes they allocated (KB per op) and
// the RSS high-water marks (MB) of the measured intervals.
// The tail goes to the table only: on a 2-CPU host, whole-process stalls
// of tens of milliseconds move a request tail by several times between
// identical runs, too much for any bound a regression gate could use.
func (r *run) setOp(latMS []float64, allocKB float64, rssMB []float64) {
	r.set("op_p50_ms", median(latMS), "ms")
	r.set("op_alloc_kb", allocKB, "KB")
	r.set("peak_rss_mb", median(rssMB), "MB")
	tl := tailOf(latMS)
	r.note("op_tail_ms", tl.Value, "ms", fmt.Sprintf("p%.2f, %d samples beyond, n=%d", tl.Pct, tl.Beyond, tl.N))
}

// setupReps is how many times an untraced run sets up; setup_s is the
// median. A traced run sets up once.
const setupReps = 3

// setupRepeated builds a workload's set-up, checks that every repetition
// built the same references (they are deterministic in the seed), keeps
// the last and releases the others.
func setupRepeated[T any](r *run, traced bool, build func() (T, error), same func(a, b T) bool, release func(T)) (T, error) {
	reps := setupReps
	if traced {
		reps = 1
	}
	var secs []float64
	var last T
	for i := range reps {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return v, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 {
			if !same(last, v) {
				r.broken = true
				fmt.Fprintln(os.Stderr, "perfbench: set-up repetitions built different references")
			}
			if release != nil {
				release(last)
			}
		}
		last = v
	}
	if !traced {
		r.set("setup_s", median(secs), "s")
	}
	return last, nil
}

// resetPeakRSS returns the memory the Go runtime holds but does not use
// to the OS and resets the kernel's RSS high-water mark to the current
// RSS, so that peakRSS then reports what ran since, as a fresh process
// would see it. It needs Linux (/proc/self/clear_refs).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the RSS high-water mark: %w", err)
	}
	return nil
}

// peakRSS returns the process's RSS high-water mark (VmHWM) in MB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "fit-solve | fit-search | fit-dist | predict-mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 15, "measured time per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end measurement")
	_ = fs.Parse(os.Args[1:])
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := benchmark(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(workload string, seed int64, d time.Duration, traced bool) error {
	env, err := currentStamp()
	if err != nil {
		return err
	}
	ctx := context.Background()
	r := &run{report: report{Metrics: map[string]metric{}}}
	if w, ok := fitWorkloads[workload]; ok {
		err = runFitWorkload(ctx, r, w, seed, d, traced)
	} else if workload == "predict-mixed" {
		err = runPredictWorkload(ctx, r, seed, d, traced)
	} else {
		return fmt.Errorf("unknown workload %q (fit-solve | fit-search | fit-dist | predict-mixed)", workload)
	}
	if err != nil {
		return err
	}
	r.Correct = r.Attempted > 0 && r.Failed == 0 && !r.broken
	r.note("fail_frac", ratio(float64(r.Failed), float64(r.Attempted)), "ratio", fmt.Sprintf("%d of %d operations", r.Failed, r.Attempted))

	base := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, map[bool]int{false: 0, true: 1}[traced])
	if r.tracer != nil {
		if err := r.tracer.write(filepath.Join(outDir, "traces", base+".jsonl")); err != nil {
			return err
		}
	}
	rec := record{Env: env, Workload: workload, Seed: seed, Seconds: d.Seconds(), Trace: traced, Result: r.report, Notes: r.notes}
	if err := rec.write(filepath.Join(outDir, "results", base+".json")); err != nil {
		return err
	}

	stampJSON, _ := json.Marshal(env) // a struct of strings and ints always encodes
	fmt.Printf("# env %s\n", stampJSON)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("# %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	line, err := json.Marshal(r.report)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
