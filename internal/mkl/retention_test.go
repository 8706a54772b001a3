package mkl

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/partition"
)

// candidateCache returns the block counts of the dense cache e scores
// candidates from, and a lookup of one block in it.
func candidateCache(e *Evaluator) (interface {
	Len() int
	Bytes() int64
}, func(feats []int)) {
	if e.cache32 != nil {
		return e.cache32, func(feats []int) { e.cache32.Block(feats) }
	}
	return e.gramCache, func(feats []int) { e.gramCache.Block(feats) }
}

// blockKeys returns the 0-based feature lists of p's blocks, keyed by
// their comma-joined string.
func blockKeys(p partition.Partition) map[string][]int {
	out := map[string][]int{}
	for _, b := range p.Blocks() {
		feats := make([]int, len(b))
		parts := make([]string, len(b))
		for i, e := range b {
			feats[i] = e - 1
			parts[i] = strconv.Itoa(e - 1)
		}
		out[strings.Join(parts, ",")] = feats
	}
	return out
}

// reusedBlocks returns the blocks that at least two distinct partitions of
// steps contain, and every distinct block.
func reusedBlocks(steps []Step) (reused, all map[string][]int) {
	seen := map[string]bool{}
	count := map[string]int{}
	all = map[string][]int{}
	for _, s := range steps {
		if seen[s.Partition.Key()] {
			continue
		}
		seen[s.Partition.Key()] = true
		for k, feats := range blockKeys(s.Partition) {
			count[k]++
			all[k] = feats
		}
	}
	reused = map[string][]int{}
	for k, n := range count {
		if n >= 2 {
			reused[k] = all[k]
		}
	}
	return reused, all
}

func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Best.Key() != want.Best.Key() || math.Float64bits(got.Score) != math.Float64bits(want.Score) || got.Evaluations != want.Evaluations || len(got.Trace) != len(want.Trace) {
		t.Fatalf("got best %v score %v evals %d trace %d, want %v %v %d %d", got.Best, got.Score, got.Evaluations, len(got.Trace), want.Best, want.Score, want.Evaluations, len(want.Trace))
	}
	for i := range got.Trace {
		g, w := got.Trace[i], want.Trace[i]
		if g.Partition.Key() != w.Partition.Key() || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("trace step %d: got %v %v, want %v %v", i, g.Partition, g.Score, w.Partition, w.Score)
		}
	}
}

func sameGram(t *testing.T, what string, got, want *linalg.Matrix) {
	t.Helper()
	if got == nil || want == nil || len(got.Data) != len(want.Data) {
		t.Fatalf("%s: deployment Gram missing or misshapen", what)
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: deployment Gram entry %d differs", what, i)
		}
	}
}

// TestScanRetainsOnlyReusedBlocks: a fixed-list search (ChainSearch,
// ExhaustiveCone, ChainBeamSearch) over the evaluator's own candidate cache
// ends with that cache holding exactly the singleton-ranking blocks plus
// the blocks two or more distinct candidates contain, at both widths and
// at P=1 and P=2, while selecting, scoring, tracing and counting exactly
// what the same search does over a cache that keeps every block. The
// deployment Gram rebuilds a single-use block to the same bits, and a
// single-use block built into warm scratch allocates nothing.
func TestScanRetainsOnlyReusedBlocks(t *testing.T) {
	const m = 6
	d := parallelTestDataDim(t, m, 48, 5)
	seed, err := TwoBlockSeed(m, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	searches := []struct {
		name  string
		run   func(e *Evaluator) (*Result, error)
		ranks bool // ranks the free features by singleton alignment first
	}{
		{"chain", func(e *Evaluator) (*Result, error) { return ChainSearch(e, seed, BestOfChain) }, true},
		{"cone", func(e *Evaluator) (*Result, error) { return ExhaustiveCone(e, seed) }, false},
		{"beam", func(e *Evaluator) (*Result, error) { return ChainBeamSearch(e, seed, 3) }, true},
	}
	_, free := freeBlockOf(seed)
	for _, backend := range []engine.Backend{engine.Float64, engine.Float32} {
		for _, workers := range []int{1, 2} {
			for _, s := range searches {
				t.Run(fmt.Sprintf("%v/P=%d/%s", backend, workers, s.name), func(t *testing.T) {
					cfg := Config{Seed: 1, Parallelism: workers, Backend: backend}
					e, err := NewEvaluator(d, cfg)
					if err != nil {
						t.Fatal(err)
					}
					// The reference keeps every block: at float64 over an
					// injected default-retention cache, at float32 (whose
					// f32 cache the evaluator always builds) on its own
					// pool attached as a scorer.
					refCfg := cfg
					if backend == engine.Float64 {
						refCfg.GramCache = kernel.NewBlockGramCache(d.X, kernel.RBFFactory(1.0), 0)
					}
					ref, err := NewEvaluator(d, refCfg)
					if err != nil {
						t.Fatal(err)
					}
					if backend != engine.Float64 {
						ref.SetScorer(ref.newPool())
					}
					got, err := s.run(e)
					if err != nil {
						t.Fatal(err)
					}
					want, err := s.run(ref)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, got, want)

					reused, all := reusedBlocks(got.Trace)
					if s.ranks && backend == engine.Float64 {
						for _, f := range free {
							k := strconv.Itoa(f - 1)
							reused[k], all[k] = []int{f - 1}, []int{f - 1}
						}
					}
					if len(reused) == len(all) {
						t.Fatal("every block is reused: the search exercises no single-use block")
					}
					stats, lookup := candidateCache(e)
					per := int64(d.N()*(d.N()+1)/2) * 8 // one packed block
					if backend == engine.Float32 {
						per /= 2
					}
					if stats.Len() != len(reused) || stats.Bytes() != int64(len(reused))*per {
						t.Fatalf("cache holds %d blocks / %d bytes, want the %d reused ones", stats.Len(), stats.Bytes(), len(reused))
					}
					for k, feats := range reused {
						if lookup(feats); stats.Len() != len(reused) {
							t.Fatalf("reused block {%s} was not retained", k)
						}
					}
					if refStats, _ := candidateCache(ref); refStats.Len() != len(all) {
						t.Fatalf("reference cache holds %d blocks, want all %d", refStats.Len(), len(all))
					}

					// The scan's flags are gone once it returns: scoring
					// again a candidate with blocks the scan did not keep
					// stores them.
					last := got.Trace[len(got.Trace)-1].Partition
					rescored := false
					for _, st := range got.Trace {
						missing := 0
						for k := range blockKeys(st.Partition) {
							if _, ok := reused[k]; !ok {
								missing++
							}
						}
						if missing == 0 || st.Partition.Equal(last) {
							continue
						}
						e.ClearScoreCache()
						if _, err := e.Score(st.Partition); err != nil {
							t.Fatal(err)
						}
						if stats.Len() != len(reused)+missing {
							t.Fatalf("after the scan, scoring %v left %d blocks cached, want %d", st.Partition, stats.Len(), len(reused)+missing)
						}
						rescored = true
						break
					}
					if !rescored {
						t.Fatal("no candidate but the last holds a block the scan did not keep")
					}

					if backend == engine.Float64 {
						// The last candidate of every list merges the whole
						// free block, which no other candidate contains.
						for _, p := range []partition.Partition{got.Best, last} {
							sameGram(t, "deployment of "+p.String(), e.DeploymentGram(p), ref.DeploymentGram(p))
						}
					}
				})
			}
		}
	}

	// The allocation count sees only the cache's own work: the factory
	// hands out kernels built once per block size, the same RBF kernels
	// RBFFactory(1) builds.
	rbf := kernel.RBFFactory(1.0)
	kernels := make([]kernel.Kernel, m+1)
	for k := 1; k <= m; k++ {
		kernels[k] = rbf(make([]int, k))
	}
	factory := func(feats []int) kernel.Kernel { return kernels[len(feats)] }
	for _, backend := range []engine.Backend{engine.Float64, engine.Float32} {
		t.Run(fmt.Sprintf("%v/scratch-build-allocates-nothing", backend), func(t *testing.T) {
			e, err := NewEvaluator(d, Config{Seed: 1, Parallelism: 1, Backend: backend, Factory: factory})
			if err != nil {
				t.Fatal(err)
			}
			// Both hold {1}, {2} and {3}; {4} and {5,6} are p1's alone,
			// {4,5,6} is p2's.
			p1 := partition.FromRGS([]int{0, 1, 2, 3, 4, 4})
			p2 := partition.FromRGS([]int{0, 1, 2, 3, 3, 3})
			setSingleUse := e.gramCache.SetSingleUse
			if e.cache32 != nil {
				setSingleUse = e.cache32.SetSingleUse
			}
			setSingleUse(kernel.SingleUseBlocks([]partition.Partition{p1, p2}))
			defer setSingleUse(nil)
			if _, err := e.scoreConfig(p1); err != nil { // warms the scratch
				t.Fatal(err)
			}
			stats, _ := candidateCache(e)
			if stats.Len() != 3 {
				t.Fatalf("cache holds %d blocks after p1, want its 3 shared ones", stats.Len())
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := e.scoreConfig(p2); err != nil {
					t.Fatal(err)
				}
			})
			// The block builds recycle their column, norm and transposed
			// buffers through sync.Pools, which drop items at random under
			// the race detector.
			if allocs != 0 && !raceEnabled {
				t.Fatalf("scoring a candidate whose single-use block is built into warm scratch: %v allocs, want 0", allocs)
			}
			if stats.Len() != 3 {
				t.Fatalf("cache holds %d blocks after p2, want the 3 shared ones", stats.Len())
			}
		})
	}
}
