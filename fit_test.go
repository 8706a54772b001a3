package iotml

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

func publicFitData(t testing.TB, seed int64) *Dataset {
	t.Helper()
	cfg := DefaultBiometricConfig()
	cfg.N = 80
	d := SyntheticBiometric(cfg, NewRNG(seed))
	d.Standardize()
	return d
}

// TestFitOptionsApply: options reach the engine — the progress stream
// fires, parallelism keeps the selection identical, and the option-built
// configuration matches the equivalent struct configuration.
func TestFitOptionsApply(t *testing.T) {
	d := publicFitData(t, 2)
	var events, improved int
	res, err := Fit(context.Background(), d,
		WithObjective(KernelAlignment),
		WithKernelFamily(RBFKernels(1.0)),
		WithCombiner(CombineSum),
		WithLearner(RidgeLearner(1e-2)),
		WithFolds(4),
		WithCVSeed(1),
		WithParallelism(2),
		WithProgress(func(ev Event) {
			events++
			if ev.Kind == EventBestImproved {
				improved++
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 || improved == 0 {
		t.Fatalf("progress stream silent: %d events, %d improvements", events, improved)
	}
	seq, err := Fit(context.Background(), d,
		WithObjective(KernelAlignment), WithCVSeed(1), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Equal(seq.Best) || res.Score != seq.Score {
		t.Fatalf("parallel fit (%v, %v) != sequential fit (%v, %v)", res.Best, res.Score, seq.Best, seq.Score)
	}
}

// TestFitCancellationPublicAPI: cancelling the context mid-fit returns the
// partial result with ctx.Err().
func TestFitCancellationPublicAPI(t *testing.T) {
	d := publicFitData(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	res, err := Fit(ctx, d, WithParallelism(1), WithProgress(func(ev Event) {
		if ev.Kind == EventCandidateEvaluated {
			if n++; n == 2 {
				cancel()
			}
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Evaluations == 0 {
		t.Fatal("cancelled fit returned no partial progress")
	}
}

// TestFitCSVRoundTripReproducesSelection is the real-data acceptance
// criterion: WriteCSV → ReadCSV → Fit reproduces the synthetic-workload
// selection exactly (same partition, same score to the last bit), because
// the CSV round trip preserves every float bit-for-bit.
func TestFitCSVRoundTripReproducesSelection(t *testing.T) {
	d := publicFitData(t, 4)
	want, err := Fit(context.Background(), d, WithCVSeed(1))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadCSV(&buf, d.CSVSchema())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fit(context.Background(), rt, WithCVSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Best.Equal(want.Best) || got.Score != want.Score || got.Evaluations != want.Evaluations {
		t.Fatalf("round-tripped fit selected (%v, %v, %d evals), original (%v, %v, %d evals)",
			got.Best, got.Score, got.Evaluations, want.Best, want.Score, want.Evaluations)
	}
	if !got.Seed.Equal(want.Seed) {
		t.Fatalf("round-tripped seed %v, original %v", got.Seed, want.Seed)
	}
}

// TestFitFromJSONL: the JSONL path feeds Fit end to end as well.
func TestFitFromJSONL(t *testing.T) {
	in := bytes.NewBufferString(`{"x0": 1.2, "x1": -0.4, "x2": 0.1, "label": 1}
{"x0": -1.1, "x1": 0.3, "x2": -0.2, "label": -1}
{"x0": 0.9, "x1": -0.2, "x2": 0.4, "label": 1}
{"x0": -1.3, "x1": 0.5, "x2": 0.2, "label": -1}
{"x0": 1.1, "x1": -0.6, "x2": -0.1, "label": 1}
{"x0": -0.8, "x1": 0.1, "x2": 0.3, "label": -1}
{"x0": 1.4, "x1": -0.5, "x2": 0.0, "label": 1}
{"x0": -1.0, "x1": 0.4, "x2": -0.3, "label": -1}
`)
	d, err := ReadJSONL(in, Schema{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(context.Background(), d, WithObjective(KernelAlignment), WithFolds(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.N() != 3 {
		t.Fatalf("best partition over %d features, want 3", res.Best.N())
	}
}
