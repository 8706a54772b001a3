// Command benchjson converts `go test -bench` text output on stdin into
// machine-readable JSON on stdout, so CI can archive benchmark results
// (BENCH_gram.json) and the perf trajectory of the Gram engine is tracked
// across PRs instead of living in log scrollback.
//
// With -baseline, the freshly parsed results are additionally compared
// against a committed snapshot and every benchmark whose ns/op or allocs/op
// regressed by more than -threshold is reported on stderr as a GitHub
// Actions annotation (plain text off CI). By default regressions warn —
// bench captures are noisy, so push-to-main runs flag the delta for a
// human instead of blocking. With -fail-on-regress, allocs/op regressions
// become errors and the exit status is 1: the blocking mode pull-request
// CI uses, so an allocation regression has to be acknowledged (by
// refreshing the committed baseline) before merge. ns/op regressions stay
// warnings even then — wall-clock is machine-dependent (the committed
// baseline and the CI runner are different hardware), while alloc counts
// are deterministic per (code, input) and are exactly what the zero-alloc
// fast paths defend. A missing or unreadable baseline never fails, even
// with -fail-on-regress: the first run of a new bench suite has no
// baseline yet.
//
// Usage:
//
//	go test -bench='^(BenchmarkGram_|BenchmarkParallel_|BenchmarkScore_)' -benchmem -run='^$' . | \
//	  go run ./cmd/benchjson -baseline BENCH_gram.json -threshold 0.20 [-fail-on-regress]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/benchparse"
)

func main() {
	baseline := flag.String("baseline", "", "committed benchmark JSON to diff against")
	threshold := flag.Float64("threshold", 0.20, "relative regression that triggers a report (0.20 = +20%)")
	failOnRegress := flag.Bool("fail-on-regress", false, "exit nonzero when any allocs/op regressed past the threshold (PR CI mode; ns/op always warns — it is machine-dependent)")
	flag.Parse()

	report, err := benchparse.Parse(bufio.NewReader(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	// benchjson runs in the same job as the benchmarks it reads, so this
	// machine's core count is theirs.
	report.NProc = runtime.NumCPU()
	regressed := 0
	if *baseline != "" {
		regressed = reportRegressions(*baseline, report, *threshold, *failOnRegress)
	}
	reportInversions(report)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if regressed > 0 && *failOnRegress {
		fmt.Fprintf(os.Stderr, "benchjson: failing: %d regressed allocs/op metrics vs %s (refresh the baseline with `make bench-json` if the regression is intended)\n",
			regressed, *baseline)
		os.Exit(1)
	}
}

// reportInversions annotates every parallel benchmark variant (_W<n>) that
// failed to beat its sequential (_Seq) twin in this very run. Inversions
// never block — the affected workload may simply be too small to amortize
// fan-out on the current runner — but they must not pass silently either:
// the baseline diff cannot catch them (an inversion present in the baseline
// is "no regression" forever), so they get their own warning line.
func reportInversions(report *benchparse.Report) {
	for _, inv := range benchparse.Inversions(report) {
		fmt.Fprintf(os.Stderr, "::warning title=parallel inversion::%s (%gms) did not beat %s (%gms): %.2fx at %d workers — contention or workload too small\n",
			inv.Par, inv.ParNs/1e6, inv.Seq, inv.SeqNs/1e6, inv.Ratio, inv.Workers)
	}
}

// reportRegressions diffs report against the baseline file and prints one
// annotation per regressed metric, returning how many were blocking
// (allocs/op deltas when failing is enabled; ns/op deltas always stay
// warnings). A missing or unreadable baseline is itself only a warning:
// the first run of a new bench suite has no baseline yet.
func reportRegressions(path string, report *benchparse.Report, threshold float64, asErrors bool) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: skipping regression check: %v\n", err)
		return 0
	}
	var base benchparse.Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: skipping regression check: bad baseline %s: %v\n", path, err)
		return 0
	}
	deltas := benchparse.Regressions(&base, report, threshold)
	blocking := 0
	for _, d := range deltas {
		// ::warning::/::error:: make the line a GitHub Actions annotation;
		// elsewhere it is just a greppable prefix.
		level := "warning"
		if asErrors && d.Metric == "allocs/op" {
			level = "error"
			blocking++
		}
		ratio := fmt.Sprintf("%.2fx, threshold %.2fx", d.Ratio, 1+threshold)
		if d.Old == 0 {
			ratio = "was zero-alloc"
		}
		fmt.Fprintf(os.Stderr, "::%s title=benchmark regression::%s %s %.0f -> %.0f (%s)\n",
			level, d.Name, d.Metric, d.Old, d.New, ratio)
	}
	if len(deltas) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no regressions > %+.0f%% vs %s (%d benchmarks compared)\n",
			threshold*100, path, len(report.Benchmarks))
	}
	return blocking
}
