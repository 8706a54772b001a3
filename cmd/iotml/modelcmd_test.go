package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/distsearch"
	"repro/internal/model"
)

// TestFitPredictLifecycle drives the offline lifecycle end to end through
// the CLI entry points: fit a tiny model to a temp artifact, load it, and
// score a request file with predict.
func TestFitPredictLifecycle(t *testing.T) {
	dir := t.TempDir()
	artPath := filepath.Join(dir, "model.iotml")
	if err := run([]string{"-parallel", "1", "fit", "-o", artPath,
		"-workload", "biometric", "-n", "40", "-kernel", "linear", "-seed", "1"}); err != nil {
		t.Fatalf("fit: %v", err)
	}
	art, err := model.LoadFile(artPath)
	if err != nil {
		t.Fatalf("loading fitted artifact: %v", err)
	}
	if art.LearnerKind != model.LearnerRidge {
		t.Fatalf("learner kind %q, want ridge", art.LearnerKind)
	}
	if art.NumTrain() != 40 {
		t.Fatalf("artifact has %d training rows, want 40", art.NumTrain())
	}

	// The default biometric workload has 18 features (3 signal facets of 2
	// plus 12 noise features); the request row must match.
	if art.Dim() != 18 {
		t.Fatalf("expected 18 features for the default biometric workload, got %d", art.Dim())
	}
	reqPath := filepath.Join(dir, "req.json")
	req := `{"instances": [[0.1, -0.2, 0.3, 0.4, -0.5, 0.6, 0.7, -0.8, 0.9, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]]}`
	if err := os.WriteFile(reqPath, []byte(req), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"predict", "-m", artPath, "-in", reqPath}); err != nil {
		t.Fatalf("predict: %v", err)
	}
}

// TestFitCPUProfile: -cpuprofile writes a non-empty gzip-compressed pprof
// profile of the fit next to the artifact, and without the flag the fit
// writes the artifact alone.
func TestFitCPUProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "fit.pprof")
	fit := []string{"-parallel", "1", "fit", "-workload", "biometric", "-n", "40", "-kernel", "linear", "-seed", "1"}
	if err := run(append(fit, "-o", filepath.Join(dir, "a.iotml"), "-cpuprofile", prof)); err != nil {
		t.Fatalf("fit -cpuprofile: %v", err)
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is %d bytes and not gzip-compressed", len(b))
	}

	bare := t.TempDir()
	if err := run(append(fit, "-o", filepath.Join(bare, "b.iotml"))); err != nil {
		t.Fatalf("fit: %v", err)
	}
	entries, err := os.ReadDir(bare)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "b.iotml" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("fit without -cpuprofile wrote %v, want only b.iotml", names)
	}
}

func TestFitSurfaceWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("surface fit is slower; skipped in -short")
	}
	dir := t.TempDir()
	artPath := filepath.Join(dir, "surface.iotml")
	if err := run([]string{"-parallel", "1", "fit", "-o", artPath,
		"-workload", "surface", "-n", "40", "-learner", "svm", "-combiner", "product",
		"-search", "greedy", "-seed", "2"}); err != nil {
		t.Fatalf("fit: %v", err)
	}
	art, err := model.LoadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	if art.LearnerKind != model.LearnerSVM {
		t.Fatalf("learner kind %q, want svm", art.LearnerKind)
	}
}

func TestModelSubcommandErrors(t *testing.T) {
	for _, args := range [][]string{
		{"fit"}, // missing -o
		{"fit", "-o", "/tmp/x.iotml", "-workload", "nope"},
		{"fit", "-o", "/tmp/x.iotml", "-learner", "nope"},
		{"fit", "-o", "/tmp/x.iotml", "-kernel", "nope"},
		{"fit", "-o", "/tmp/x.iotml", "-search", "nope"},
		{"fit", "-o", "/tmp/x.iotml", "-combiner", "nope"},
		{"predict"}, // missing -m
		{"predict", "-m", "/does/not/exist.iotml"},
		{"serve"}, // missing -m
		{"serve", "-m", "/does/not/exist.iotml"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	// Batching has one mode, so serve takes no flush-window flag.
	if err := run([]string{"serve", "-flush", "2ms"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -flush") {
		t.Errorf("serve -flush: err = %v, want an unknown-flag error", err)
	}
}

// TestFitGammaZeroSameWithDistWorkers: the in-process fit and the fleet
// expand one spec from the flags, so a command line selects the same
// partition and writes a byte-identical artifact with and without
// -dist-workers — including -gamma 0, which both read as the default
// bandwidth.
func TestFitGammaZeroSameWithDistWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fleet []string
	for range 2 {
		ready := make(chan string, 1)
		errc := make(chan error, 1)
		go func() {
			errc <- distsearch.Serve(ctx, "127.0.0.1:0", &distsearch.WorkerServer{Parallelism: 1}, ready)
		}()
		select {
		case addr := <-ready:
			fleet = append(fleet, addr)
		case err := <-errc:
			t.Fatalf("search worker failed to start: %v", err)
		}
	}
	dir := t.TempDir()
	fit := func(name string, extra ...string) ([]byte, *model.Artifact) {
		t.Helper()
		path := filepath.Join(dir, name)
		args := append([]string{"-parallel", "1", "fit", "-o", path, "-n", "60", "-gamma", "0"}, extra...)
		if err := run(args); err != nil {
			t.Fatalf("fit %v: %v", extra, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		art, err := model.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw, art
	}
	localRaw, local := fit("local.iotml")
	distRaw, dist := fit("dist.iotml", "-dist-workers", strings.Join(fleet, ","))
	if !dist.Partition.Equal(local.Partition) {
		t.Fatalf("distributed fit selected %v, in-process fit %v", dist.Partition, local.Partition)
	}
	if !bytes.Equal(distRaw, localRaw) {
		t.Fatal("distributed and in-process fits wrote different artifacts")
	}
}
