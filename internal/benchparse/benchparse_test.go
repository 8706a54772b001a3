package benchparse

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkGram_Config_Scalar         	     163	   7840653 ns/op	 6116528 B/op	  160802 allocs/op
BenchmarkGram_Config_Vector-8       	     729	   1720648 ns/op	  725712 B/op	      18 allocs/op
BenchmarkParallel_ChainSearch_Seq-8 	      27	  43037947 ns/op
some unrelated test log line
PASS
ok  	repro	10.870s
`

func TestParseSample(t *testing.T) {
	r, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if r.Goos != "linux" || r.Goarch != "amd64" || r.Pkg != "repro" {
		t.Errorf("header = %q/%q/%q", r.Goos, r.Goarch, r.Pkg)
	}
	if !strings.Contains(r.CPU, "Xeon") {
		t.Errorf("cpu = %q", r.CPU)
	}
	if len(r.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(r.Benchmarks))
	}
	b := r.Benchmarks[0]
	if b.Name != "BenchmarkGram_Config_Scalar" || b.Iterations != 163 || b.NsPerOp != 7840653 {
		t.Errorf("first benchmark = %+v", b)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 6116528 || b.AllocsPerOp == nil || *b.AllocsPerOp != 160802 {
		t.Errorf("benchmem fields = %v %v", b.BytesPerOp, b.AllocsPerOp)
	}
	// Without -benchmem the memory fields stay absent, not zero.
	if last := r.Benchmarks[2]; last.BytesPerOp != nil || last.AllocsPerOp != nil {
		t.Errorf("no-benchmem line grew memory fields: %+v", last)
	}
}

func TestParseRecordsGOMAXPROCS(t *testing.T) {
	for _, c := range []struct {
		name  string
		input string
		want  int
	}{
		{"suffix", "BenchmarkA-8 10 5 ns/op\nBenchmarkB-8 10 5 ns/op\n", 8},
		{"no suffix means 1", "BenchmarkA 10 5 ns/op\n", 1},
		{"-cpu list disagrees", "BenchmarkA-2 10 5 ns/op\nBenchmarkA-4 10 5 ns/op\n", 0},
		{"no benchmarks", "PASS\n", 0},
	} {
		r, err := Parse(strings.NewReader(c.input))
		if err != nil {
			t.Fatal(err)
		}
		if r.GOMAXPROCS != c.want {
			t.Errorf("%s: GOMAXPROCS = %d, want %d", c.name, r.GOMAXPROCS, c.want)
		}
	}
}

// TestBaselineWithoutCoreFieldsLoads: the committed snapshot predates the
// nproc/gomaxprocs fields and must still decode and gate.
func TestBaselineWithoutCoreFieldsLoads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_gram.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("committed baseline does not decode: %v", err)
	}
	if len(base.Benchmarks) == 0 {
		t.Fatal("committed baseline has no benchmarks")
	}
	if got := Regressions(&base, &base, 0.2); len(got) != 0 {
		t.Fatalf("baseline regressed against itself: %+v", got)
	}
}

func TestParseSkipsMalformed(t *testing.T) {
	input := "BenchmarkBroken abc 123 ns/op\nBenchmarkNoNs-8 12 34 B/op\nBenchmarkOK 10 5 ns/op\n"
	r, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 1 || r.Benchmarks[0].Name != "BenchmarkOK" {
		t.Fatalf("benchmarks = %+v, want only BenchmarkOK", r.Benchmarks)
	}
}

func TestParseEmpty(t *testing.T) {
	r, err := Parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 0 {
		t.Fatalf("benchmarks = %+v", r.Benchmarks)
	}
}

func f64(v float64) *float64 { return &v }

func TestRegressions(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 1000, AllocsPerOp: f64(100)},
		{Name: "BenchmarkB-8", NsPerOp: 1000, AllocsPerOp: f64(100)},
		{Name: "BenchmarkGone-8", NsPerOp: 50},
		{Name: "BenchmarkZero-8", NsPerOp: 0, AllocsPerOp: f64(0)},
	}}
	cur := &Report{Benchmarks: []Benchmark{
		// ns/op regressed 1.5x, allocs improved.
		{Name: "BenchmarkA-8", NsPerOp: 1500, AllocsPerOp: f64(10)},
		// ns/op within threshold, allocs regressed 2x.
		{Name: "BenchmarkB-8", NsPerOp: 1100, AllocsPerOp: f64(200)},
		// New benchmark: no baseline, never a regression.
		{Name: "BenchmarkNew-8", NsPerOp: 999999},
		// Zero ns/op baseline is skipped (no meaningful ratio), but any
		// alloc growth from a zero-alloc baseline is a regression.
		{Name: "BenchmarkZero-8", NsPerOp: 10, AllocsPerOp: f64(10)},
	}}
	got := Regressions(base, cur, 0.20)
	if len(got) != 3 {
		t.Fatalf("got %d deltas (%+v), want 3", len(got), got)
	}
	if got[0].Name != "BenchmarkA-8" || got[0].Metric != "ns/op" || got[0].Ratio != 1.5 {
		t.Errorf("delta[0] = %+v", got[0])
	}
	if got[1].Name != "BenchmarkB-8" || got[1].Metric != "allocs/op" || got[1].Ratio != 2 {
		t.Errorf("delta[1] = %+v", got[1])
	}
	if got[2].Name != "BenchmarkZero-8" || got[2].Metric != "allocs/op" || got[2].Old != 0 || got[2].New != 10 {
		t.Errorf("delta[2] = %+v", got[2])
	}
}

// TestRegressionsMatchAcrossGOMAXPROCSSuffixes pins the cross-machine
// matching rule: a baseline captured at one core count must still gate a
// run captured at another (the suffix differs, the benchmark is the same).
func TestRegressionsMatchAcrossGOMAXPROCSSuffixes(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: f64(100)}, // 1-core capture, no suffix
		{Name: "BenchmarkB-2", NsPerOp: 1000, AllocsPerOp: f64(100)},
	}}
	cur := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-8", NsPerOp: 1000, AllocsPerOp: f64(200)},
		{Name: "BenchmarkB-8", NsPerOp: 1000, AllocsPerOp: f64(200)},
	}}
	got := Regressions(base, cur, 0.20)
	if len(got) != 2 {
		t.Fatalf("got %d deltas (%+v), want 2 across differing suffixes", len(got), got)
	}
	for i, d := range got {
		if d.Metric != "allocs/op" || d.Ratio != 2 {
			t.Errorf("delta[%d] = %+v", i, d)
		}
	}
	// A trailing non-numeric suffix is part of the name, not a proc count.
	if bn := baseName("BenchmarkX-lite"); bn != "BenchmarkX-lite" {
		t.Errorf("baseName(BenchmarkX-lite) = %q", bn)
	}
	if bn := baseName("BenchmarkY-16"); bn != "BenchmarkY" {
		t.Errorf("baseName(BenchmarkY-16) = %q", bn)
	}
}

func TestRegressionsAtThresholdBoundary(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkA-8", NsPerOp: 1000}}}
	cur := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkA-8", NsPerOp: 1200}}}
	// Exactly +20% is not "more than" the threshold.
	if got := Regressions(base, cur, 0.20); len(got) != 0 {
		t.Fatalf("boundary case reported: %+v", got)
	}
	cur.Benchmarks[0].NsPerOp = 1201
	if got := Regressions(base, cur, 0.20); len(got) != 1 {
		t.Fatalf("just past boundary not reported: %+v", got)
	}
}

func TestInversions(t *testing.T) {
	r := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkParallel_Cone_Seq-8", NsPerOp: 100e6},
		{Name: "BenchmarkParallel_Cone_W2-8", NsPerOp: 127e6}, // slower: inversion
		{Name: "BenchmarkParallel_Cone_W4-8", NsPerOp: 60e6},  // faster: fine
		{Name: "BenchmarkParallel_Chain_Seq-8", NsPerOp: 50e6},
		{Name: "BenchmarkParallel_Chain_W2-8", NsPerOp: 50e6},  // tie counts as inversion
		{Name: "BenchmarkParallel_Orphan_W2-8", NsPerOp: 10e6}, // no _Seq twin: skipped
		{Name: "BenchmarkGram_Whatever-8", NsPerOp: 1e6},       // not a _W variant
	}}
	got := Inversions(r)
	if len(got) != 2 {
		t.Fatalf("got %d inversions (%+v), want 2", len(got), got)
	}
	if got[0].Par != "BenchmarkParallel_Cone_W2-8" || got[0].Workers != 2 || got[0].Ratio != 1.27 {
		t.Errorf("inversion[0] = %+v", got[0])
	}
	if got[1].Seq != "BenchmarkParallel_Chain_Seq-8" || got[1].Ratio != 1 {
		t.Errorf("inversion[1] = %+v", got[1])
	}
}

func TestInversionsEmptyOnHealthyReport(t *testing.T) {
	r := &Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkParallel_Cone_Seq-8", NsPerOp: 100e6},
		{Name: "BenchmarkParallel_Cone_W2-8", NsPerOp: 55e6},
	}}
	if got := Inversions(r); len(got) != 0 {
		t.Fatalf("healthy report flagged: %+v", got)
	}
}
