package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mkl"
)

// TestRefitIsBitIdenticalAndRecycles fits the same data twice in one
// process. The second fit draws the Gram buffers the first released from
// linalg's recycler, unzeroed (NaN-poisoned in race builds), so it must
// select the same partition with the same score bits and save a
// byte-identical artifact, while allocating under a third of what the
// first fit did. The collector is paused across both fits, so the pools
// cannot drop what the first fit put back; the allocation bound is skipped
// under -race, where sync.Pool drops items at random.
func TestRefitIsBitIdenticalAndRecycles(t *testing.T) {
	cfg := dataset.BiometricConfig{N: 200, FacePerDim: 2, Noise: 0.8, IrrelevantSD: 1.0, NoiseFeatures: 2}
	d := dataset.SyntheticBiometric(cfg, rand.New(rand.NewSource(5)))
	d.Standardize()
	fitCfg := FitConfig{MKL: mkl.Config{Parallelism: 2}}

	// Two collections empty the pools of what earlier tests put back, so
	// the first fit allocates its buffers afresh.
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type fitRun struct {
		res   *FitResult
		alloc uint64
		sum   [32]byte
	}
	fit := func() fitRun {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, err := Fit(context.Background(), d, fitCfg)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		art, err := res.Artifact()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := art.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return fitRun{res: res, alloc: m1.TotalAlloc - m0.TotalAlloc, sum: sha256.Sum256(buf.Bytes())}
	}
	first, second := fit(), fit()
	if !second.res.Best.Equal(first.res.Best) {
		t.Fatalf("refit selected %v, first fit %v", second.res.Best, first.res.Best)
	}
	if math.Float64bits(second.res.Score) != math.Float64bits(first.res.Score) {
		t.Fatalf("refit scored %v, first fit %v", second.res.Score, first.res.Score)
	}
	if second.sum != first.sum {
		t.Fatalf("refit artifact SHA-256 %x, first fit %x", second.sum, first.sum)
	}
	t.Logf("fit allocated %d B, refit %d B", first.alloc, second.alloc)
	if !raceEnabled && 3*second.alloc >= first.alloc {
		t.Fatalf("refit allocated %d B, not under a third of the first fit's %d B", second.alloc, first.alloc)
	}
}
