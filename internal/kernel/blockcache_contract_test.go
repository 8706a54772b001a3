package kernel_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/partition"
)

// cacheSubject adapts one value type of the block cache to the contract
// table: lookup returns the stored value's identity plus its entries
// widened to float64, assemble returns a candidate's assembled output.
type cacheSubject struct {
	t     *testing.T
	stats interface {
		Len() int
		Bytes() int64
	}
	lookup   func(feats []int) (any, []float64, error)
	assemble func(p partition.Partition) ([]float64, error)
}

// block is lookup for the test's own goroutine: it fails the test on error.
func (c cacheSubject) block(feats []int) (any, []float64) {
	c.t.Helper()
	v, data, err := c.lookup(feats)
	if err != nil {
		c.t.Fatal(err)
	}
	return v, data
}

func (c cacheSubject) mustAssemble(p partition.Partition) []float64 {
	c.t.Helper()
	out, err := c.assemble(p)
	if err != nil {
		c.t.Fatal(err)
	}
	return out
}

// cacheRow is one value type of the block cache: the exact f64 Gram, the
// f32 Gram, and the low-rank factor.
type cacheRow struct {
	name string
	// blockBytes is the accounted size of one block at n rows.
	blockBytes func(n int) int64
	open       func(t *testing.T, x [][]float64, limit int) cacheSubject
}

const contractRank = 4

func contractRows() []cacheRow {
	factory := kernel.RBFFactory(1.0)
	widen32 := func(m *linalg.Dense[float32]) []float64 {
		return linalg.Convert[float64](nil, m).Data
	}
	return []cacheRow{
		{
			name:       "f64",
			blockBytes: func(n int) int64 { return int64(n*n) * 8 },
			open: func(t *testing.T, x [][]float64, limit int) cacheSubject {
				c := kernel.NewBlockGramCache(x, factory, limit)
				return cacheSubject{
					t:     t,
					stats: c,
					lookup: func(feats []int) (any, []float64, error) {
						g, err := c.Block(feats)
						if err != nil {
							return nil, nil, err
						}
						return g, g.Data, nil
					},
					assemble: func(p partition.Partition) ([]float64, error) {
						return c.GramForPartition(p, kernel.CombineSum, nil).Data, nil
					},
				}
			},
		},
		{
			name:       "f32",
			blockBytes: func(n int) int64 { return int64(n*n) * 4 },
			open: func(t *testing.T, x [][]float64, limit int) cacheSubject {
				c := kernel.NewDenseGramCache[float32](x, factory, limit)
				return cacheSubject{
					t:     t,
					stats: c,
					lookup: func(feats []int) (any, []float64, error) {
						g, err := c.Block(feats)
						if err != nil {
							return nil, nil, err
						}
						return g, widen32(g), nil
					},
					assemble: func(p partition.Partition) ([]float64, error) {
						return widen32(c.GramForPartition(p, kernel.CombineSum, nil)), nil
					},
				}
			},
		},
		{
			name:       "lowrank",
			blockBytes: func(n int) int64 { return int64(n*contractRank) * 8 },
			open: func(t *testing.T, x [][]float64, limit int) cacheSubject {
				c := kernel.NewApproxGramCache(x, factory, kernel.ApproxNystrom, contractRank, 3, limit)
				return cacheSubject{
					t:     t,
					stats: c,
					lookup: func(feats []int) (any, []float64, error) {
						f, err := c.Block(feats)
						if err != nil {
							return nil, nil, err
						}
						return f, f.Data, nil
					},
					assemble: func(p partition.Partition) ([]float64, error) {
						f, err := c.FactorForPartitionScratch(p, kernel.CombineSum, nil, &kernel.AssemblyScratch{})
						if err != nil {
							return nil, err
						}
						return f.Data, nil
					},
				}
			},
		},
	}
}

func contractData(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	return x
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBlockGramCacheContract pins the one block cache's contract for every
// value type it holds: first store wins under concurrency, FIFO eviction by
// block count keeps the newest blocks, a negative limit retains nothing,
// byte accounting follows the element width, and eviction never changes an
// assembled output.
func TestBlockGramCacheContract(t *testing.T) {
	const n, d = 10, 6
	x := contractData(n, d, 9)
	for _, row := range contractRows() {
		t.Run(row.name, func(t *testing.T) {
			per := row.blockBytes(n)

			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("first-store-wins/workers=%d", workers), func(t *testing.T) {
					c := row.open(t, x, 0)
					blocks := [][]int{{0}, {1, 2}, {0, 3, 5}, {4}}
					got := make([][]any, workers)
					start := make(chan struct{})
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							<-start
							got[w] = make([]any, len(blocks))
							// Each racer walks the blocks from a different
							// offset, so cold blocks are contended.
							for k := range blocks {
								i := (k + w) % len(blocks)
								var err error
								if got[w][i], _, err = c.lookup(blocks[i]); err != nil {
									t.Error(err)
								}
							}
						}(w)
					}
					close(start)
					wg.Wait()
					for i, feats := range blocks {
						stored, _ := c.block(feats)
						for w := range got {
							if got[w][i] != stored {
								t.Fatalf("block %v: racer %d got a value other than the stored one", feats, w)
							}
						}
					}
					if c.stats.Len() != len(blocks) {
						t.Fatalf("cache holds %d blocks, want %d", c.stats.Len(), len(blocks))
					}
				})
			}

			t.Run("fifo-by-count", func(t *testing.T) {
				c := row.open(t, x, 2)
				p0, v0 := c.block([]int{0})
				v0 = append([]float64(nil), v0...)
				p1, _ := c.block([]int{1})
				p2, _ := c.block([]int{2}) // evicts {0}
				if c.stats.Len() != 2 || c.stats.Bytes() != 2*per {
					t.Fatalf("cache holds %d blocks / %d bytes, want limit 2 / %d", c.stats.Len(), c.stats.Bytes(), 2*per)
				}
				if again, _ := c.block([]int{2}); again != p2 {
					t.Fatal("newest block was not retained")
				}
				if again, _ := c.block([]int{1}); again != p1 {
					t.Fatal("second-newest block was not retained under limit 2")
				}
				again, v := c.block([]int{0})
				if again == p0 {
					t.Fatal("oldest block was not evicted")
				}
				if !sameBits(v, v0) {
					t.Fatal("rebuilt block differs from the evicted one")
				}
			})

			t.Run("negative-limit-retains-nothing", func(t *testing.T) {
				c := row.open(t, x, -1)
				a, va := c.block([]int{0, 1})
				b, vb := c.block([]int{0, 1})
				if c.stats.Len() != 0 || c.stats.Bytes() != 0 {
					t.Fatalf("cache holds %d blocks / %d bytes, want none", c.stats.Len(), c.stats.Bytes())
				}
				if a == b {
					t.Fatal("a cache without retention handed out a stored block")
				}
				if !sameBits(va, vb) {
					t.Fatal("rebuilt blocks differ")
				}
			})

			t.Run("handed-out-blocks-survive-eviction", func(t *testing.T) {
				c := row.open(t, x, 1)
				_, v0 := c.block([]int{0})
				snap := append([]float64(nil), v0...)
				for f := 1; f < 4; f++ {
					c.block([]int{f}) // evicts {0}
				}
				if !sameBits(v0, snap) {
					t.Fatal("an evicted block was mutated")
				}
			})

			t.Run("eviction-bit-identical", func(t *testing.T) {
				unbounded := row.open(t, x, 0)
				tight := row.open(t, x, 1) // evicts on nearly every candidate
				parts := partition.All(d)[:40]
				for pass := 0; pass < 2; pass++ { // the second pass re-touches evicted blocks
					for _, p := range parts {
						if !sameBits(unbounded.mustAssemble(p), tight.mustAssemble(p)) {
							t.Fatalf("pass %d partition %v: evicting cache assembled a different output", pass, p)
						}
					}
				}
				if tight.stats.Len() != 1 || tight.stats.Bytes() != per {
					t.Fatalf("tight cache holds %d blocks / %d bytes, want 1 / %d", tight.stats.Len(), tight.stats.Bytes(), per)
				}
			})
		})
	}
}
