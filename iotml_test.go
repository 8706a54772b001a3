package iotml

import (
	"context"
	"strings"
	"testing"

	"repro/internal/mkl"
)

func TestPublicAPIQuickstartPath(t *testing.T) {
	cfg := DefaultBiometricConfig()
	cfg.N = 100
	train := SyntheticBiometric(cfg, NewRNG(1))
	train.Standardize()
	test := SyntheticBiometric(cfg, NewRNG(2))
	test.Standardize()

	res, err := Fit(context.Background(), train, WithConfig(FitConfig{
		MKL: mkl.Config{Objective: mkl.KernelAlignment, Seed: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.N() != train.D() {
		t.Fatalf("partition over %d features, want %d", res.Best.N(), train.D())
	}
	acc, err := Deploy(train, test, res.Best, MKLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if acc <= 0.5 {
		t.Errorf("deployed accuracy = %v, want better than chance", acc)
	}
}

// TestPublicAPIDeployRejectsFeatureMismatch checks that Deploy returns an
// error, rather than panicking, when the test set has fewer features than
// the train set the configuration is fitted on.
func TestPublicAPIDeployRejectsFeatureMismatch(t *testing.T) {
	cfg := DefaultBiometricConfig()
	cfg.N = 60
	train := SyntheticBiometric(cfg, NewRNG(1))
	train.Standardize()
	test := SyntheticBiometric(cfg, NewRNG(2))
	test.Standardize()
	for i, row := range test.X {
		test.X[i] = row[:8]
	}
	_, err := Deploy(train, test, FinestPartition(train.D()), MKLConfig{})
	if err == nil || !strings.Contains(err.Error(), "test set has 8 features") {
		t.Fatalf("Deploy err = %v, want a feature-count mismatch error", err)
	}
}

func TestPublicAPIPartitionHelpers(t *testing.T) {
	p, err := ParsePartition("1/23/4")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 3 {
		t.Errorf("blocks = %d", p.NumBlocks())
	}
	if FinestPartition(4).Rank() != 0 || CoarsestPartition(4).Rank() != 3 {
		t.Error("finest/coarsest ranks wrong")
	}
}

func TestPublicAPIRoughExample(t *testing.T) {
	tbl := PhonesExample()
	if tbl.N() != 4 {
		t.Errorf("phones table has %d rows", tbl.N())
	}
}

// TestPublicAPIServePath drives the root serving surface end to end: fit,
// package, register, Serve with re-exported options, and score through the
// server bit-identically to the offline Predictor.
func TestPublicAPIServePath(t *testing.T) {
	cfg := DefaultBiometricConfig()
	cfg.N = 60
	train := SyntheticBiometric(cfg, NewRNG(1))
	train.Standardize()
	res, err := Fit(context.Background(), train, WithFolds(4), WithCVSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	art, err := res.Artifact()
	if err != nil {
		t.Fatal(err)
	}

	reg := NewServeRegistry()
	if err := reg.Load("m", art); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(context.Background(), reg,
		WithWorkers(1),
		WithQueueDepth(8),
		WithGlobalQueueDepth(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pred, err := NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	q := train.X[:5]
	want, err := pred.Scores(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.ScoreBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("served score %d = %v, offline %v", i, got[i], want[i])
		}
	}
	if m, ok := srv.SnapshotModel("m"); !ok || m.Requests != 1 {
		t.Fatalf("snapshot = %+v ok=%v", m, ok)
	}
	if fp, ok := reg.Fingerprint("m"); !ok || len(fp) != 16 {
		t.Fatalf("fingerprint = %q ok=%v", fp, ok)
	}
}
