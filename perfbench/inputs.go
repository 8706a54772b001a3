package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro"
)

// Every input is a pure function of the --seed argument: the program
// under test only ever sees the bytes built here.

// requestStream offsets the seed of the predict traffic so that request
// rows never coincide with training rows of the same seed.
const requestStream = 1_000_003

// fitCSV renders the synthetic biometric set (6 signal features plus
// noise pure-noise features) with n rows as the CSV an `iotml fit -data`
// user would hand over.
func fitCSV(seed int64, n, noise int) ([]byte, error) {
	cfg := iotml.DefaultBiometricConfig()
	cfg.N = n
	cfg.NoiseFeatures = noise
	d := iotml.SyntheticBiometric(cfg, iotml.NewRNG(seed))
	var b bytes.Buffer
	if err := iotml.WriteCSV(&b, d); err != nil {
		return nil, fmt.Errorf("rendering training CSV: %w", err)
	}
	return b.Bytes(), nil
}

// Predict traffic shape.
const (
	singleBodies = 256 // distinct 1-instance bodies
	batchBodies  = 64  // distinct 32-instance bodies
	batchRows    = 32
	batchShare   = 0.10 // share of requests that carry a batch
)

// predictBodies is the pool of request bodies the open-loop clients post,
// keyed by class.
type predictBodies struct {
	single [][]byte
	batch  [][]byte
}

// makeBodies builds the request bodies from fresh synthetic readings with
// the training set's feature layout, standardized like the training data.
func makeBodies(seed int64, noise int) (predictBodies, error) {
	cfg := iotml.DefaultBiometricConfig()
	cfg.N = singleBodies
	cfg.NoiseFeatures = noise
	rng := iotml.NewRNG(seed + requestStream)
	d := iotml.SyntheticBiometric(cfg, rng)
	d.Standardize()
	var pb predictBodies
	enc := func(rows [][]float64) ([]byte, error) {
		return json.Marshal(iotml.PredictRequest{Instances: rows})
	}
	for _, row := range d.X {
		b, err := enc([][]float64{row})
		if err != nil {
			return pb, err
		}
		pb.single = append(pb.single, b)
	}
	for range batchBodies {
		rows := make([][]float64, batchRows)
		for i := range rows {
			rows[i] = d.X[rng.Intn(len(d.X))]
		}
		b, err := enc(rows)
		if err != nil {
			return pb, err
		}
		pb.batch = append(pb.batch, b)
	}
	return pb, nil
}

// planned is one scheduled request: its class and which body it posts.
type planned struct {
	batch bool
	body  int
}

// makePlan draws the class and body of count requests of one phase. Each
// phase gets its own stream, so phases do not shift when another phase
// changes length.
func makePlan(seed int64, phase, count int) []planned {
	rng := iotml.NewRNG(seed*131 + int64(phase))
	out := make([]planned, count)
	for i := range out {
		if rng.Float64() < batchShare {
			out[i] = planned{batch: true, body: rng.Intn(batchBodies)}
		} else {
			out[i] = planned{body: rng.Intn(singleBodies)}
		}
	}
	return out
}
