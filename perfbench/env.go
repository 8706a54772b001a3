package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies where and on what code a result was measured, so
// parallel readings can be interpreted and results from different
// machines are never compared silently.
type stamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	// Commit is the git commit of the checkout, or "none" when the
	// checkout is not a git repository; Source digests the Go sources and
	// module files either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func currentStamp() (stamp, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return stamp{}, err
	}
	return stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit("."),
		Source:     src,
	}, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the .git directory without running git.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every .go, go.mod and go.sum file under root (paths
// and contents, in path order), skipping VCS and build directories.
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == outDir) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("hashing sources: %w", err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// record is the result file a run leaves behind for later comparison.
type record struct {
	Env      stamp    `json:"env"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Result   report   `json:"result"`
	Notes    []string `json:"notes"`
}

func (rec record) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// stampDiffs lists the stamp fields on which a and b differ. Machine and
// toolchain differences make the numbers incomparable; code differences
// are what a comparison is usually for, and are listed as such.
func stampDiffs(a, b stamp) (machine, code []string) {
	field := func(out *[]string, name string, x, y any) {
		if x != y {
			*out = append(*out, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	field(&machine, "nproc", a.NumCPU, b.NumCPU)
	field(&machine, "gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	field(&machine, "go", a.Go, b.Go)
	field(&machine, "cpu", a.CPU, b.CPU)
	field(&code, "commit", a.Commit, b.Commit)
	field(&code, "source_sha256", a.Source, b.Source)
	return machine, code
}

// compareMain prints two result files side by side, after saying how
// their stamps differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&recs[i]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p, err)
			return 1
		}
	}
	a, b := recs[0], recs[1]
	machine, code := stampDiffs(a.Env, b.Env)
	for _, d := range machine {
		fmt.Printf("WARNING: different environments, numbers are not comparable: %s\n", d)
	}
	for _, d := range code {
		fmt.Printf("note: different code: %s\n", d)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		fmt.Printf("WARNING: different runs: %s/%gs/trace=%v vs %s/%gs/trace=%v\n",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		x := a.Result.Metrics[n]
		y, ok := b.Result.Metrics[n]
		if !ok {
			fmt.Printf("%-32s %14.4f %14s %s\n", n, x.Value, "missing", x.Unit)
			continue
		}
		change := "n/a"
		if x.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(y.Value-x.Value)/math.Abs(x.Value))
		}
		fmt.Printf("%-32s %14.4f %14.4f %-9s %s\n", n, x.Value, y.Value, x.Unit, change)
	}
	return 0
}
