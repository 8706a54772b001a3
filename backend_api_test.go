package iotml

import (
	"context"
	"testing"
)

// TestWithBackendDefaultBitIdentical: WithBackend(Float64Backend) — and
// spelling nothing at all — reproduce the same selection bit-for-bit.
func TestWithBackendDefaultBitIdentical(t *testing.T) {
	d := publicFitData(t, 5)
	plain, err := Fit(context.Background(), d, WithCVSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Fit(context.Background(), d, WithCVSeed(1), WithBackend(Float64Backend))
	if err != nil {
		t.Fatal(err)
	}
	if !explicit.Best.Equal(plain.Best) || explicit.Score != plain.Score || explicit.Evaluations != plain.Evaluations {
		t.Fatalf("WithBackend(Float64Backend) selected (%v, %v, %d), default (%v, %v, %d) — must be bit-identical",
			explicit.Best, explicit.Score, explicit.Evaluations, plain.Best, plain.Score, plain.Evaluations)
	}
}

// TestAutoBackendFacade: the one-line facade follows the documented
// selection table and always returns a concrete backend ParseBackend
// round-trips.
func TestAutoBackendFacade(t *testing.T) {
	small := publicFitData(t, 7) // n = 80
	if got := AutoBackend(small, CVAccuracy); got != Float64Backend {
		t.Fatalf("AutoBackend(n=80, cv) = %v, want exact", got)
	}
	if got := AutoBackend(small, KernelAlignment); got != Float64Backend {
		t.Fatalf("AutoBackend(n=80, alignment) = %v, want exact", got)
	}
	cfg := DefaultBiometricConfig()
	cfg.N = 2000
	mid := SyntheticBiometric(cfg, NewRNG(8))
	if got := AutoBackend(mid, CVAccuracy); got != Float32Backend {
		t.Fatalf("AutoBackend(n=2000, cv) = %v, want f32", got)
	}
	if got := AutoBackend(mid, KernelAlignment); got != Float64Backend {
		t.Fatalf("AutoBackend(n=2000, alignment) = %v, want exact (alignment stretches exact further)", got)
	}
	for _, b := range []Backend{
		AutoBackend(small, CVAccuracy), AutoBackend(mid, CVAccuracy), NystromBackend(256), RFFBackend(64),
	} {
		rt, err := ParseBackend(b.String())
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", b.String(), err)
		}
		if rt != b {
			t.Fatalf("ParseBackend(%q) = %v, want %v", b.String(), rt, b)
		}
	}
	if _, err := ParseBackend("auto"); err == nil {
		t.Fatal("ParseBackend accepted \"auto\" — it must be resolved via AutoBackend first")
	}
}

// TestWithBackendFloat32Fit: an end-to-end f32 fit through the public API
// succeeds and lands within the documented tolerance of the default fit.
func TestWithBackendFloat32Fit(t *testing.T) {
	d := publicFitData(t, 9)
	ref, err := Fit(context.Background(), d, WithCVSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	f32, err := Fit(context.Background(), d, WithCVSeed(1), WithBackend(Float32Backend))
	if err != nil {
		t.Fatal(err)
	}
	if diff := f32.Score - ref.Score; diff > 0.05 || diff < -0.05 {
		t.Fatalf("f32 fit score %v vs f64 %v — outside the 0.05 CV tolerance", f32.Score, ref.Score)
	}
	// The deployment fit behind the artifact is always exact float64.
	if _, err := f32.Artifact(); err != nil {
		t.Fatalf("f32-searched fit could not produce a deployment artifact: %v", err)
	}
}
