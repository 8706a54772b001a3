package main

import (
	"bytes"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/mkl"
	"repro/internal/model"
)

// folds is the CV fold count of every fit workload (the fit default).
const folds = 4

// replayStats are the layer timings of one fit's candidate stream,
// replayed in order on one sequential evaluator, one shared block-Gram
// cache and one ridge solver.
type replayStats struct {
	score, gram, solve []time.Duration
	blocksAsked        int
	blocksBuilt        int
	cacheBytes         int64
	m                  int // training-fold size of the ridge solves
	mismatches         int // replayed scores that differ from the stream's
}

func replay(csv []byte, ev *fitEvents) (replayStats, error) {
	var rs replayStats
	d, err := iotml.ReadCSV(bytes.NewReader(csv), csvSchema)
	if err != nil {
		return rs, err
	}
	d.Standardize()
	factory := iotml.RBFKernels(1)
	trainer := kernelmachine.Ridge{Lambda: 1e-2}
	eval, err := mkl.NewEvaluator(d, mkl.Config{
		Factory: factory, Combiner: iotml.CombineSum, Trainer: trainer, Folds: folds, Parallelism: 1,
	})
	if err != nil {
		return rs, err
	}
	for i, p := range ev.cands {
		t0 := time.Now()
		s, err := eval.Score(p)
		rs.score = append(rs.score, time.Since(t0))
		if err != nil || math.Float64bits(s) != math.Float64bits(ev.scores[i]) {
			rs.mismatches++
		}
	}

	n := d.N()
	rs.m = n - n/folds
	cache := kernel.NewBlockGramCache(d.X, factory, 0)
	sub := linalg.NewMatrix(rs.m, rs.m)
	var gram *linalg.Matrix
	for _, p := range ev.cands {
		before := cache.Len()
		t0 := time.Now()
		gram = cache.GramForPartition(p, iotml.CombineSum, gram)
		rs.gram = append(rs.gram, time.Since(t0))
		rs.blocksAsked += p.NumBlocks()
		rs.blocksBuilt += cache.Len() - before

		for r := range rs.m {
			copy(sub.Data[r*rs.m:(r+1)*rs.m], gram.Data[r*n:r*n+rs.m])
		}
		t0 = time.Now()
		_, err := trainer.Train(sub, d.Y[:rs.m])
		rs.solve = append(rs.solve, time.Since(t0))
		if err != nil {
			return rs, err
		}
	}
	rs.cacheBytes = cache.Bytes()
	return rs, nil
}

// report sets the replay-derived per-layer metrics. searchWall is the
// median wall time of the traced fits' search stage.
func (rs replayStats) report(r *run, searchWall time.Duration) {
	var total time.Duration
	for _, t := range rs.score {
		total += t
	}
	r.set("mkl.score_ms", median(msAll(rs.score)), "ms")
	r.set("parsearch.busy_frac", ratio(float64(total), float64(searchWall)*float64(runtime.GOMAXPROCS(0))), "ratio")
	r.set("kernel.gram_ms", median(msAll(rs.gram)), "ms")
	r.set("kernel.block_hit_frac", ratio(float64(rs.blocksAsked-rs.blocksBuilt), float64(rs.blocksAsked)), "ratio")
	r.set("kernel.cache_mb", float64(rs.cacheBytes)/(1<<20), "MB")
	solveMS := median(msAll(rs.solve))
	r.set("kernelmachine.solve_ms", solveMS, "ms")
	// Computed, not counted: a Cholesky of an m×m system costs m³/3 flops.
	chol := math.Pow(float64(rs.m), 3) / 3 / 1e9
	r.set("linalg.solve_gflop", chol*folds*float64(len(rs.score)), "GFLOP")
	r.set("linalg.gflop_per_s", ratio(chol, solveMS/1000), "GFLOP/s")
}

// modelCost times Predictor.ScoresInto on rows at batch sizes 1 and 32,
// in microseconds per instance.
func modelCost(r *run, art []byte, rows [][]float64) error {
	a, err := model.Load(bytes.NewReader(art))
	if err != nil {
		return err
	}
	pred, err := model.NewPredictor(a)
	if err != nil {
		return err
	}
	for _, batch := range []int{1, 32} {
		const budget = 150 * time.Millisecond
		var dst []float64
		instances := 0
		start := time.Now()
		for i := 0; time.Since(start) < budget || i < len(rows); i += batch {
			lo := i % len(rows)
			hi := min(lo+batch, len(rows))
			if dst, err = pred.ScoresInto(dst, rows[lo:hi]); err != nil {
				return err
			}
			instances += hi - lo
		}
		us := float64(time.Since(start)) / float64(time.Microsecond) / float64(instances)
		if batch == 1 {
			r.set("model.score_us_per_instance_b1", us, "us")
		} else {
			r.set("model.score_us_per_instance_b32", us, "us")
		}
	}
	return nil
}

// zeroFit reports the fit layers as idle: the predict workload's measured
// phase never reaches them.
func zeroFit(r *run) {
	for _, name := range []string{"dataset.read_ms", "rough.seed_ms", "mkl.search_ms", "mkl.score_ms", "kernel.gram_ms", "kernelmachine.solve_ms", "core.artifact_ms"} {
		r.set(name, 0, "ms")
	}
	for _, name := range []string{"mkl.candidates", "mkl.inproc_candidates", "distsearch.installs", "distsearch.shards", "distsearch.retries"} {
		r.set(name, 0, "count")
	}
	for _, name := range []string{"mkl.useful_frac", "parsearch.busy_frac", "kernel.block_hit_frac", "distsearch.worker_busy_frac"} {
		r.set(name, 0, "ratio")
	}
	r.set("kernel.cache_mb", 0, "MB")
	r.set("linalg.solve_gflop", 0, "GFLOP")
	r.set("linalg.gflop_per_s", 0, "GFLOP/s")
	r.set("distsearch.install_ms", 0, "ms")
	r.set("distsearch.shard_ms", 0, "ms")
	r.set("distsearch.wire_kb", 0, "KB")
}
