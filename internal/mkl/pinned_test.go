package mkl

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/partition"
)

// pinnedF32Scores are the Float64bits of every candidate score of a
// four-feature exhaustive cone under engine.Float32, in trace order, one
// row per objective × combiner. Recorded once; a refactor of the f32 path
// must reproduce them bit for bit.
var pinnedF32Scores = map[string][]uint64{
	"alignment/sum": {
		0x3fe30a3bdf5c01ae, 0x3fde774d6e3e2118, 0x3fe03bf6c6c4bf3e,
		0x3fe54120235a70c1, 0x3fe1856eb8b0609e, 0x3fe6d7a5037fad2b,
		0x3fe5233bf9245e8e, 0x3fe4cb4e33cce4a4, 0x3fe576cfaf2fea7e,
		0x3fe8a448e0e37205, 0x3fe610ed9c1ab0a4, 0x3fe5725602c489da,
		0x3fe667f16aedc7ff, 0x3fe8a17879221dba, 0x3fe65d7bae6689ca,
	},
	"alignment/product": {
		0x3fe30a3bdf5c01ae, 0x3fdbf8b410831c3b, 0x3fdc92786ad1c236,
		0x3fdfab89eecf8958, 0x3fd7dc8d05d3d8b5, 0x3fe17ca02330d79f,
		0x3fdfab89ecd371c0, 0x3fda9359d9fcdbc8, 0x3fdfab89ee500545,
		0x3fe26bd0c0a5027b, 0x3fdb5cc81a804d4d, 0x3fdad60a78bd3b13,
		0x3fdba39d365ed541, 0x3fde23b09ac7e830, 0x3fd738394a6096f4,
	},
	"ridge/sum": {
		0x3fed999999999999, 0x3fee666666666666, 0x3fed99999999999a,
		0x3fee666666666666, 0x3fed99999999999a, 0x3fed999999999999,
		0x3fee666666666666, 0x3fee666666666666, 0x3fec000000000000,
		0x3feccccccccccccc, 0x3fec000000000000, 0x3fec000000000000,
		0x3feccccccccccccc, 0x3fed99999999999a, 0x3fed99999999999a,
	},
	"ridge/product": {
		0x3fed999999999999, 0x3fed999999999999, 0x3fec000000000000,
		0x3fed999999999999, 0x3fed999999999999, 0x3fec000000000000,
		0x3fed999999999999, 0x3fed999999999999, 0x3fed999999999999,
		0x3feccccccccccccd, 0x3fee666666666666, 0x3fec000000000000,
		0x3fee666666666666, 0x3fec000000000000, 0x3fee666666666666,
	},
	"svm/sum": {
		0x3fed99999999999a, 0x3fef333333333333, 0x3fee666666666666,
		0x3fee666666666666, 0x3fee666666666666, 0x3fed999999999999,
		0x3fef333333333333, 0x3fef333333333333, 0x3fec000000000000,
		0x3fee666666666666, 0x3fee666666666666, 0x3fed99999999999a,
		0x3fee666666666666, 0x3fee666666666666, 0x3fee666666666666,
	},
	"svm/product": {
		0x3fed99999999999a, 0x3feccccccccccccd, 0x3feccccccccccccd,
		0x3feccccccccccccd, 0x3fec000000000000, 0x3fed99999999999a,
		0x3feccccccccccccd, 0x3feccccccccccccd, 0x3feccccccccccccd,
		0x3fee666666666666, 0x3feccccccccccccd, 0x3fec000000000000,
		0x3feccccccccccccd, 0x3fed99999999999a, 0x3fec000000000000,
	},
}

// pinnedF32Decisions are, per CV row of pinnedF32Scores, the FNV-1a hash
// of the Float64bits of the last fold's decision values after each
// candidate, in trace order. CV accuracies move in steps of one test
// point; the decision values pin the f32 solve itself.
var pinnedF32Decisions = map[string]uint64{
	"ridge/sum":     0x7dc372563b73d266,
	"ridge/product": 0xf5fd5777187658ac,
	"svm/sum":       0x860807e10167d41d,
	"svm/product":   0x80b1b4a2c0fc47b2,
}

// pinnedF32GramHash is the FNV-1a hash of the Float32bits of one
// assembled f32 Gram (see f32GramHash).
const pinnedF32GramHash uint64 = 0x0bcd39f3ebc35255

// hashBits feeds the low n bytes of b to h, least significant first.
func hashBits(h hash.Hash64, b uint64, n int) {
	var buf [8]byte
	for i := 0; i < n; i++ {
		buf[i] = byte(b >> (8 * i))
	}
	h.Write(buf[:n])
}

// f32GramHash assembles the f32 Gram of p through the evaluator's own
// block cache and hashes its Float32bits in row-major order.
func f32GramHash(e *Evaluator, p partition.Partition) uint64 {
	g := e.cache32.GramForPartition(p, e.cfg.Combiner, nil)
	h := fnv.New64a()
	for _, v := range g.Data {
		hashBits(h, uint64(math.Float32bits(v)), 4)
	}
	return h.Sum64()
}

// TestBackendFloat32BitsPinned pins the exact output of the Float32
// backend: alignment, native f32 ridge CV and the SVM widen path, under
// both combiners, plus one assembled Gram.
func TestBackendFloat32BitsPinned(t *testing.T) {
	d := parallelTestDataDim(t, 4, 40, 31)
	objectives := []struct {
		name string
		obj  Objective
		tr   kernelmachine.Trainer
	}{
		{"alignment", KernelAlignment, nil},
		{"ridge", CVAccuracy, kernelmachine.Ridge{Lambda: 1e-2}},
		{"svm", CVAccuracy, kernelmachine.SVM{C: 1, Seed: 1}},
	}
	combiners := []struct {
		name string
		c    kernel.Combiner
	}{{"sum", kernel.CombineSum}, {"product", kernel.CombineProduct}}
	var report strings.Builder
	for _, o := range objectives {
		for _, c := range combiners {
			name := o.name + "/" + c.name
			e, err := NewEvaluator(d, Config{
				Objective: o.obj, Trainer: o.tr, Combiner: c.c, Seed: 5,
				Backend: engine.Float32, Parallelism: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := ExhaustiveCone(e, partition.Coarsest(d.D()))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]uint64, len(res.Trace))
			for i, s := range res.Trace {
				got[i] = math.Float64bits(s.Score)
			}
			fmt.Fprintf(&report, "%q: {", name)
			for i, b := range got {
				if i%3 == 0 {
					report.WriteString("\n\t")
				} else {
					report.WriteString(" ")
				}
				fmt.Fprintf(&report, "%#016x,", b)
			}
			report.WriteString("\n},\n")
			want, ok := pinnedF32Scores[name]
			if !ok {
				t.Errorf("%s: no pinned scores", name)
				continue
			}
			if len(got) != len(want) {
				t.Errorf("%s: %d candidates, pinned %d", name, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s candidate %d (%v): score bits %#016x, pinned %#016x", name, i, res.Trace[i].Partition, got[i], want[i])
				}
			}
			if o.obj != CVAccuracy {
				continue
			}
			// Re-score the trace on a fresh evaluator, hashing the last
			// fold's decision values after each candidate.
			fresh, err := NewEvaluator(d, e.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, s := range res.Trace {
				if _, err := fresh.Score(s.Partition); err != nil {
					t.Fatal(err)
				}
				for _, v := range fresh.scoreBuf[(fresh.cfg.Folds-1)%2] {
					hashBits(h, math.Float64bits(v), 8)
				}
			}
			fmt.Fprintf(&report, "decisions %q: %#016x\n", name, h.Sum64())
			if h.Sum64() != pinnedF32Decisions[name] {
				t.Errorf("%s: decision-value hash %#016x, pinned %#016x", name, h.Sum64(), pinnedF32Decisions[name])
			}
		}
	}
	e, err := NewEvaluator(d, Config{Backend: engine.Float32, Combiner: kernel.CombineSum, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	h := f32GramHash(e, partition.FromRGS([]int{0, 0, 1, 2}))
	fmt.Fprintf(&report, "gram: %#016x\n", h)
	if h != pinnedF32GramHash {
		t.Errorf("assembled f32 Gram hash %#016x, pinned %#016x", h, pinnedF32GramHash)
	}
	if t.Failed() {
		t.Logf("recorded:\n%s", report.String())
	}
}
