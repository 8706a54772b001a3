package core

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/mkl"
)

// savedArtifact packages r and returns the saved artifact bytes.
func savedArtifact(t *testing.T, r *FitResult) []byte {
	t.Helper()
	art, err := r.Artifact()
	if err != nil {
		t.Fatalf("Artifact: %v", err)
	}
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestArtifactFromSearchCacheMatchesRebuild pins the deployment fit's two
// Gram routes to the same artifact bytes: the Gram Fit assembles from the
// search's block cache (the Float64 backend with retention) and the
// deployment fit's own retention-disabled assembly, which every other
// configuration keeps. It also checks which configurations hold a Gram,
// and that packaging twice gives the same bytes while leaving the held
// Gram untouched.
func TestArtifactFromSearchCacheMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    mkl.Config
		cached bool
	}{
		{"float64", mkl.Config{}, true},
		{"product", mkl.Config{Combiner: kernel.CombineProduct}, true},
		{"no-retention", mkl.Config{GramCacheBlocks: -1}, false},
		{"small-retention", mkl.Config{GramCacheBlocks: 1}, true},
		{"f32", mkl.Config{Backend: engine.Float32}, false},
		{"budgeted-nystrom", mkl.Config{Backend: engine.Nystrom(8), BudgetTopK: 3}, false},
		{"svm", mkl.Config{Trainer: kernelmachine.SVM{C: 1, Seed: 3}}, true},
		{"perceptron", mkl.Config{Trainer: kernelmachine.Perceptron{Epochs: 10}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := tc.cfg
				cfg.Seed, cfg.Parallelism = seed, 2
				res, err := Fit(context.Background(), tinyWorkload(seed), FitConfig{MKL: cfg})
				if err != nil {
					t.Fatalf("seed %d: fit: %v", seed, err)
				}
				if (res.gram != nil) != tc.cached {
					t.Fatalf("seed %d: fit holds a deployment Gram: %v, want %v", seed, res.gram != nil, tc.cached)
				}
				var held []float64
				if res.gram != nil {
					held = append(held, res.gram.Data...)
				}
				got := savedArtifact(t, res)
				if again := savedArtifact(t, res); !bytes.Equal(again, got) {
					t.Fatalf("seed %d: a second Artifact call saved different bytes", seed)
				}
				for i, v := range held {
					if res.gram.Data[i] != v {
						t.Fatalf("seed %d: Artifact modified the held Gram at entry %d", seed, i)
					}
				}
				rebuilt := *res
				rebuilt.gram = nil
				if want := savedArtifact(t, &rebuilt); !bytes.Equal(got, want) {
					t.Fatalf("seed %d: artifact from the search's cache differs from the rebuilt one", seed)
				}
			}
		})
	}
}
