// Package benchparse parses the text output of `go test -bench` into a
// structured report — the bridge between the benchmark suites and the
// machine-readable BENCH_gram.json artifact CI archives each run.
package benchparse

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the full benchmark name including the -GOMAXPROCS suffix,
	// e.g. "BenchmarkGram_Config_Vector-8".
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was set.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Report is the full parse result: environment header lines plus one entry
// per benchmark.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// NProc is the logical CPU count of the machine that ran the
	// benchmarks (set by the caller — the text output does not carry it),
	// and GOMAXPROCS the value they ran at (see Parse). Together they say
	// whether a parallel reading had cores to scale on. Both are absent
	// (zero) in snapshots recorded before they existed.
	NProc      int         `json:"nproc,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output and collects every benchmark line.
// Unrecognized lines (PASS, ok, test logs) are skipped, not errors; only a
// read failure returns one. GOMAXPROCS is read from the -N suffix the
// testing package appends to every benchmark name when it is not 1; it
// stays 0 when the lines disagree (a go test -cpu list) or there are none.
func Parse(r io.Reader) (*Report, error) {
	report := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			report.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				report.Benchmarks = append(report.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i, b := range report.Benchmarks {
		procs := 1
		if base := baseName(b.Name); base != b.Name {
			procs, _ = strconv.Atoi(b.Name[len(base)+1:]) // baseName checked the digits
		}
		if i > 0 && procs != report.GOMAXPROCS {
			report.GOMAXPROCS = 0
			break
		}
		report.GOMAXPROCS = procs
	}
	return report, nil
}

// Delta is one metric of one benchmark that regressed against a baseline
// report.
type Delta struct {
	// Name is the full benchmark name (including the -GOMAXPROCS suffix).
	Name string `json:"name"`
	// Metric is "ns/op" or "allocs/op".
	Metric string `json:"metric"`
	// Old and New are the baseline and current values.
	Old float64 `json:"old"`
	New float64 `json:"new"`
	// Ratio is New/Old (> 1 for a reported regression), or 0 when the
	// baseline was zero and any growth is reported.
	Ratio float64 `json:"ratio"`
}

// Regressions compares cur against base and returns one Delta per
// (benchmark, metric) whose current value exceeds the baseline by more than
// threshold (0.20 = +20%), for ns/op and allocs/op. A zero allocs/op
// baseline — the steady state the fast paths aim for — reports any growth
// at all (a relative threshold would never fire on it). Matching strips
// the -GOMAXPROCS name suffix ("BenchmarkGram_Config_Vector-8" matches a
// baseline "BenchmarkGram_Config_Vector"), so a baseline captured on one
// core count still gates runs on another — without this, a CI runner with
// a different GOMAXPROCS than the capture machine would silently compare
// nothing. Benchmarks present in only one report are skipped — renamed or
// new benchmarks are not regressions — as are metrics absent from either
// side. Order follows cur's benchmark order (ns/op before allocs/op per
// benchmark), so output is deterministic.
func Regressions(base, cur *Report, threshold float64) []Delta {
	old := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[baseName(b.Name)] = b
	}
	var out []Delta
	for _, b := range cur.Benchmarks {
		o, ok := old[baseName(b.Name)]
		if !ok {
			continue
		}
		if o.NsPerOp > 0 && b.NsPerOp > o.NsPerOp*(1+threshold) {
			out = append(out, Delta{Name: b.Name, Metric: "ns/op", Old: o.NsPerOp, New: b.NsPerOp, Ratio: b.NsPerOp / o.NsPerOp})
		}
		if o.AllocsPerOp == nil || b.AllocsPerOp == nil {
			continue
		}
		oa, ba := *o.AllocsPerOp, *b.AllocsPerOp
		switch {
		case oa > 0 && ba > oa*(1+threshold):
			out = append(out, Delta{Name: b.Name, Metric: "allocs/op", Old: oa, New: ba, Ratio: ba / oa})
		case oa == 0 && ba > 0:
			out = append(out, Delta{Name: b.Name, Metric: "allocs/op", Old: 0, New: ba})
		}
	}
	return out
}

// Inversion is a parallel benchmark variant running no faster than its
// sequential twin — a scaling anomaly worth surfacing even though it is not
// a baseline regression.
type Inversion struct {
	// Seq and Par are the full benchmark names of the sequential and
	// parallel variants (e.g. "BenchmarkParallel_ExhaustiveCone_Seq-8" and
	// "...._W2-8").
	Seq string `json:"seq"`
	Par string `json:"par"`
	// Workers is the worker count parsed from the parallel variant's _W<n>
	// suffix.
	Workers int `json:"workers"`
	// SeqNs and ParNs are the respective ns/op readings.
	SeqNs float64 `json:"seq_ns"`
	ParNs float64 `json:"par_ns"`
	// Ratio is ParNs/SeqNs (>= 1 for every reported inversion).
	Ratio float64 `json:"ratio"`
}

// Inversions scans a report for benchmark families following the
// "<Base>_Seq" / "<Base>_W<n>" naming convention of the parallel suites and
// returns every parallel variant whose ns/op is not below its sequential
// twin's. Multi-worker parallelism that fails to beat one worker is either
// contention or a workload too small to amortize the fan-out — both worth an
// explicit annotation rather than a silent pass (the regression gate only
// compares against the baseline, so a persistent inversion would never
// fire it). Order follows the report's benchmark order.
func Inversions(r *Report) []Inversion {
	seq := make(map[string]Benchmark)
	for _, b := range r.Benchmarks {
		name := baseName(b.Name)
		if strings.HasSuffix(name, "_Seq") {
			seq[strings.TrimSuffix(name, "_Seq")] = b
		}
	}
	var out []Inversion
	for _, b := range r.Benchmarks {
		name := baseName(b.Name)
		i := strings.LastIndex(name, "_W")
		if i < 0 {
			continue
		}
		workers, err := strconv.Atoi(name[i+2:])
		if err != nil || workers < 2 {
			continue
		}
		s, ok := seq[name[:i]]
		if !ok || s.NsPerOp <= 0 {
			continue
		}
		if b.NsPerOp >= s.NsPerOp {
			out = append(out, Inversion{
				Seq: s.Name, Par: b.Name, Workers: workers,
				SeqNs: s.NsPerOp, ParNs: b.NsPerOp, Ratio: b.NsPerOp / s.NsPerOp,
			})
		}
	}
	return out
}

// baseName strips the -GOMAXPROCS suffix the testing package appends to
// benchmark names ("BenchmarkFoo-8" → "BenchmarkFoo"), the key Regressions
// matches on. Names without an all-digit suffix pass through unchanged.
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// parseLine parses one "BenchmarkName-8  163  7840653 ns/op  6116528 B/op
// 160802 allocs/op" line. Value/unit pairs after the iteration count are
// positional: a float value followed by its unit token.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
			seenNs = true
		case "B/op":
			val := v
			b.BytesPerOp = &val
		case "allocs/op":
			val := v
			b.AllocsPerOp = &val
		}
	}
	return b, seenNs
}
