// Scale: fit at n = 10,000 — two orders of magnitude past the exact
// engine's comfort zone — with the approximate Gram backend and the
// budgeted search: candidates are scored on low-rank Nyström factors
// (never materializing an n×n Gram per candidate), the top survivors are
// re-scored exactly, and the winning configuration is retrained exactly
// and saved as a deployable artifact.
//
// The phase timings printed at the end are the point of the example: the
// lattice sweep is cheap under the approximation, and the one unavoidable
// exact computation left is the deployment fit of the single selected
// configuration.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	iotml "repro"
)

func main() {
	// Full scale is n=10k with per-block rank 256; the smoke-test workload
	// (see examples_smoke_test.go) shrinks both so the example stays in
	// the regular suite.
	n, rank := 10000, 256
	if os.Getenv("IOTML_EXAMPLE_TINY") != "" {
		n, rank = 400, 32
	}

	// 1. A synthetic two-class workload: five features, the first three
	// carrying signal and the last two pure noise — large enough that one
	// exact Gram matrix is n² = 100M entries (800 MB) at full scale.
	train := synth(n, 11)
	fmt.Printf("workload: %d instances, %d features (exact Gram would be %d MB per candidate)\n",
		train.N(), train.D(), 8*n*n/(1<<20))

	// 2. Budgeted approximate fit: the chain search scores every candidate
	// on Nyström factors (rank 256 per block), then the top 2 survivors
	// are re-scored on exact Gram matrices, which decide the selection.
	t0 := time.Now()
	res, err := iotml.Fit(context.Background(), train,
		iotml.WithObjective(iotml.KernelAlignment),
		iotml.WithBackend(iotml.NystromBackend(rank)),
		iotml.WithBudget(2),
		iotml.WithProgress(func(ev iotml.Event) {
			if ev.Kind == iotml.EventBestImproved {
				fmt.Printf("  progress: best improved to %.4f at %s (%d evaluations)\n",
					ev.BestScore, ev.Best, ev.Evaluations)
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	searchWall := time.Since(t0)
	fmt.Printf("selected kernel partition: %s (alignment %.4f, %d evaluations, %v)\n",
		res.Best, res.Score, res.Evaluations, searchWall.Round(time.Millisecond))

	// 3. Deployment: retrain the selected configuration exactly — the one
	// O(n²) assembly + O(n³) solve the budgeted search cannot avoid, paid
	// once instead of once per lattice candidate — and persist it.
	fmt.Println("deployment fit (exact, the expensive step at this scale)...")
	t0 = time.Now()
	art, err := res.Artifact()
	if err != nil {
		log.Fatal(err)
	}
	deployWall := time.Since(t0)

	dir, err := os.MkdirTemp("", "iotml-scale")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "model.iotml")
	if err := art.SaveFile(path); err != nil {
		log.Fatal(err)
	}

	// 4. Round-trip: reload the artifact and score a few training rows, as
	// `iotml predict` / `iotml serve` would.
	loaded, err := iotml.LoadArtifact(path)
	if err != nil {
		log.Fatal(err)
	}
	pred, err := iotml.NewPredictor(loaded)
	if err != nil {
		log.Fatal(err)
	}
	scores, err := pred.ScoresInto(nil, train.X[:4])
	if err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("artifact: %d KB on disk, first scores after reload: %.3f %.3f %.3f %.3f\n",
		fi.Size()/1024, scores[0], scores[1], scores[2], scores[3])
	fmt.Printf("wall clock: approximate search %v, exact deployment fit %v\n",
		searchWall.Round(time.Millisecond), deployWall.Round(time.Millisecond))
}

// synth builds the n×5 two-class workload: features 1–3 separate the
// classes, features 4–5 are noise the search should refuse to mix in.
func synth(n int, seed int64) *iotml.Dataset {
	rng := iotml.NewRNG(seed)
	d := &iotml.Dataset{}
	for i := 0; i < n; i++ {
		y := 1
		if rng.Float64() < 0.5 {
			y = -1
		}
		row := make([]float64, 5)
		for j := range row {
			if j < 3 {
				row[j] = float64(y)*0.8 + rng.NormFloat64()*0.5
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	return d
}
