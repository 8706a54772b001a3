package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/mkl"
	"repro/internal/model"
)

// tinyWorkload builds a small faceted dataset for the persistence matrix.
func tinyWorkload(seed int64) *dataset.Dataset {
	cfg := dataset.BiometricConfig{N: 40, FacePerDim: 2, Noise: 0.8, IrrelevantSD: 1.0, NoiseFeatures: 2}
	d := dataset.SyntheticBiometric(cfg, rand.New(rand.NewSource(seed)))
	d.Standardize()
	return d
}

func probes(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed * 101))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// TestArtifactRoundTripIsBitIdentical is the PR's acceptance property: for
// each learner and each kernel combiner, across seeds {1,2,3}, packaging a
// fit as an artifact, saving it, and loading it back scores bit-identically
// to the in-memory artifact.
func TestArtifactRoundTripIsBitIdentical(t *testing.T) {
	learners := map[string]kernelmachine.Trainer{
		"ridge":      kernelmachine.Ridge{Lambda: 1e-2},
		"svm":        kernelmachine.SVM{C: 1, Seed: 3},
		"perceptron": kernelmachine.Perceptron{Epochs: 10},
	}
	combiners := map[string]kernel.Combiner{
		"sum":     kernel.CombineSum,
		"product": kernel.CombineProduct,
	}
	for lname, trainer := range learners {
		for cname, combiner := range combiners {
			t.Run(lname+"/"+cname, func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					d := tinyWorkload(seed)
					res, err := Fit(context.Background(), d, FitConfig{
						MKL: mkl.Config{
							Trainer:     trainer,
							Combiner:    combiner,
							Parallelism: 1,
						},
					})
					if err != nil {
						t.Fatalf("seed %d: fit: %v", seed, err)
					}
					art, err := res.Artifact()
					if err != nil {
						t.Fatalf("seed %d: Artifact: %v", seed, err)
					}
					if want := model.LearnerKindOf(trainer); art.LearnerKind != want {
						t.Fatalf("seed %d: learner kind %q, want %q", seed, art.LearnerKind, want)
					}
					if !art.Partition.Equal(res.Best) {
						t.Fatalf("seed %d: artifact partition %v, fit selected %v", seed, art.Partition, res.Best)
					}

					inMem, err := model.NewPredictor(art)
					if err != nil {
						t.Fatalf("seed %d: predictor: %v", seed, err)
					}
					q := probes(seed, 11, d.D())
					want, err := inMem.Scores(q)
					if err != nil {
						t.Fatal(err)
					}

					var buf bytes.Buffer
					if err := art.Save(&buf); err != nil {
						t.Fatalf("seed %d: Save: %v", seed, err)
					}
					loaded, err := model.Load(bytes.NewReader(buf.Bytes()))
					if err != nil {
						t.Fatalf("seed %d: Load: %v", seed, err)
					}
					fromDisk, err := model.NewPredictor(loaded)
					if err != nil {
						t.Fatal(err)
					}
					got, err := fromDisk.Scores(q)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("seed %d: probe %d: loaded score %v != in-memory %v",
								seed, i, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestArtifactRequiresFitProvenance pins the error path: a hand-built
// FitResult has no dataset to retrain on.
func TestArtifactRequiresFitProvenance(t *testing.T) {
	var r FitResult
	if _, err := r.Artifact(); err == nil {
		t.Fatal("Artifact on a hand-built FitResult did not error")
	}
}

// TestArtifactModelMatchesHoldoutModel checks that the packaged model is
// the deployment model: artifact scores on the training rows classify
// exactly as mkl.HoldoutAccuracy's internal model does.
func TestArtifactModelMatchesHoldoutModel(t *testing.T) {
	d := tinyWorkload(9)
	res, err := Fit(context.Background(), d, FitConfig{MKL: mkl.Config{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	art, err := res.Artifact()
	if err != nil {
		t.Fatal(err)
	}
	pred, err := model.NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := pred.Scores(d.X)
	if err != nil {
		t.Fatal(err)
	}
	labels := model.Labels(scores)
	agree := 0
	for i, l := range labels {
		if l == d.Y[i] {
			agree++
		}
	}
	selfAcc := float64(agree) / float64(len(labels))
	holdout, err := mkl.HoldoutAccuracy(d, d, res.Best, res.cfg.MKL)
	if err != nil {
		t.Fatal(err)
	}
	if selfAcc != holdout {
		t.Fatalf("artifact self-accuracy %v != holdout-on-train %v", selfAcc, holdout)
	}
}
