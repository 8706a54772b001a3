//go:build scalesmoke

// Scale smoke for the approximate Gram engine (tag-gated like loadsmoke —
// it allocates hundreds of MB and burns minutes of CPU, which has no place
// in the tier-1 suite). Two contracts ride here:
//
//   - TestScaleSmoke_Nystrom10k: a synthetic n=10k fit under nystrom:256
//     finishes inside an explicit wall-clock and MaxRSS budget, and the
//     top-K exact re-score selects the committed golden partition. The
//     re-score runs on the approximate evaluator's own exact block cache,
//     which retains no blocks: at n=10k one block is 400 MB packed, so the
//     cache builds each block into one reused buffer and folds it into the
//     candidate's Gram before building the next — the assembled Gram plus
//     one block, however many blocks — and this test is what keeps that
//     shape working at scale (TestRetentionDisabledAssemblyHoldsOneBlock
//     guards it in tier 1).
//   - TestScaleSmoke_Budgeted1kSpeedup: at n=1k, where the exact
//     exhaustive cone is still affordable, the budgeted search (approximate
//     lattice sweep + top-K exact re-score) must select the same partition
//     at least 5x faster — the headline claim of the low-rank engine.
//
// Run with: make scale-smoke
package iotml

import (
	"runtime"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/mkl"
	"repro/internal/partition"
)

// scaleGolden is the partition the n=10k budgeted fit must select under
// the alignment objective — each signal feature in its own kernel, the two
// noise features fused into one. Committed as a golden so a silent drift
// in landmark seeding, factor assembly, or re-score ordering fails loudly
// instead of shipping a different model.
const scaleGolden = "1/2/3/45"

// maxRSSBytes reads the process high-water mark (Linux reports KiB).
func maxRSSBytes(t *testing.T) int64 {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return ru.Maxrss * 1024
}

func TestScaleSmoke_Nystrom10k(t *testing.T) {
	const (
		n          = 10000
		rank       = 256
		topK       = 2
		wallBudget = 10 * time.Minute
		rssBudget  = 6 << 30 // bytes; measured peak ~2.5 GB, 2x headroom
	)
	d := gramApproxData(n)
	seed := partition.Coarsest(d.D())

	approx, err := mkl.NewEvaluator(d, mkl.Config{
		Objective: mkl.KernelAlignment, Seed: 1, Parallelism: 2,
		Backend: engine.Nystrom(rank),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The re-score's exact cache retains no blocks: keeping 10k x 10k
	// blocks (400 MB each, packed) across candidates would dwarf the RSS
	// budget the test defends.
	start := time.Now()
	res, err := mkl.BudgetedSearch(approx, seed, func(e *mkl.Evaluator, s partition.Partition) (*mkl.Result, error) {
		return mkl.ChainSearch(e, s, mkl.BestOfChain)
	}, topK)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	rss := maxRSSBytes(t)
	t.Logf("n=%d nystrom:%d topK=%d: best=%v score=%.6f evals=%d wall=%v rss=%.1fGB",
		n, rank, topK, res.Best, res.Score, res.Evaluations, wall.Round(time.Second), float64(rss)/(1<<30))

	if got := res.Best.String(); got != scaleGolden {
		t.Errorf("selected partition %s, golden %s", got, scaleGolden)
	}
	if len(res.Trace) == 0 || len(res.Trace) > topK {
		t.Errorf("exact re-score trace has %d steps, want 1..%d", len(res.Trace), topK)
	}
	if wall > wallBudget {
		t.Errorf("wall clock %v exceeds budget %v", wall, wallBudget)
	}
	if rss > rssBudget {
		t.Errorf("MaxRSS %d bytes exceeds budget %d", rss, int64(rssBudget))
	}
}

func TestScaleSmoke_Budgeted1kSpeedup(t *testing.T) {
	const (
		n       = 1000
		rank    = 16
		topK    = 4
		speedup = 5.0
	)
	// CVAccuracy is the objective where the engine's headline holds: the
	// exact path pays an O(n³) ridge solve per fold per candidate, while
	// the low-rank path solves in the R-dimensional primal (R = 16·blocks
	// here). Alignment's exact twin is only O(n²) per candidate, too cheap
	// for a stable 5x at n=1k.
	d := gramApproxData(n)
	seed := partition.Coarsest(d.D())

	// Budgeted phase first, exact reference second, with a forced GC at
	// the phase boundary: both phases then start from a settled heap
	// instead of the second inheriting the first one's GC debt (which
	// skews the ratio either way on small absolute times).
	//
	// The re-score keeps default block retention, the setting this gate
	// was calibrated with, so its cache is injected: an approximate
	// evaluator's own exact cache retains nothing.
	approx, err := mkl.NewEvaluator(d, mkl.Config{
		Objective: mkl.CVAccuracy, Seed: 1,
		Backend:   engine.Nystrom(rank),
		GramCache: kernel.NewBlockGramCache(d.X, kernel.RBFFactory(1.0), 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	t0 := time.Now()
	res, err := mkl.BudgetedSearch(approx, seed, func(e *mkl.Evaluator, s partition.Partition) (*mkl.Result, error) {
		return mkl.ExhaustiveCone(e, s)
	}, topK)
	if err != nil {
		t.Fatal(err)
	}
	budgetWall := time.Since(t0)

	exactRef, err := mkl.NewEvaluator(d, mkl.Config{Objective: mkl.CVAccuracy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	t0 = time.Now()
	want, err := mkl.ExhaustiveCone(exactRef, seed)
	if err != nil {
		t.Fatal(err)
	}
	exactWall := time.Since(t0)

	got := exactWall.Seconds() / budgetWall.Seconds()
	t.Logf("n=%d: exact cone %v, budgeted (nystrom:%d, topK=%d) %v — %.1fx",
		n, exactWall.Round(time.Millisecond), rank, topK, budgetWall.Round(time.Millisecond), got)

	if !res.Best.Equal(want.Best) {
		t.Errorf("budgeted selected %v, exact cone selected %v", res.Best, want.Best)
	}
	if got < speedup {
		t.Errorf("budgeted search only %.1fx faster than exact (need >= %.0fx)", got, speedup)
	}
}
