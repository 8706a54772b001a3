package mkl

import (
	"strings"
	"testing"

	"repro/internal/chains"
	"repro/internal/combinat"
	"repro/internal/dataset"
	"repro/internal/kernelmachine"
	"repro/internal/partition"
	"repro/internal/rough"
	"repro/internal/stats"
)

func smallFacetData(n int, seed int64) *dataset.Dataset {
	d := dataset.SyntheticBiometric(dataset.BiometricConfig{
		N: n, FacePerDim: 2, Noise: 0.3, IrrelevantSD: 1.0,
	}, stats.NewRNG(seed))
	d.Standardize()
	return d
}

func newEval(t *testing.T, d *dataset.Dataset, obj Objective) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(d, Config{Objective: obj, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestTwoBlockSeed(t *testing.T) {
	p, err := TwoBlockSeed(5, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 2 {
		t.Fatalf("seed = %s, want two blocks", p)
	}
	if !p.SameBlock(2, 4) || p.SameBlock(1, 2) {
		t.Errorf("seed = %s, want {2,4} vs rest", p)
	}
	if _, err := TwoBlockSeed(5, []int{9}); err == nil {
		t.Error("out-of-range K should error")
	}
	if _, err := TwoBlockSeed(0, nil); err == nil {
		t.Error("nonpositive dimension should error")
	}
}

func TestEvaluatorCountsAndCaches(t *testing.T) {
	d := smallFacetData(60, 1)
	e := newEval(t, d, KernelAlignment)
	p := partition.Coarsest(d.D())
	s1, err := e.Score(p)
	if err != nil {
		t.Fatal(err)
	}
	if e.Evaluations() != 1 {
		t.Errorf("evals = %d, want 1", e.Evaluations())
	}
	s2, err := e.Score(p)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("cache returned a different score")
	}
	if e.Evaluations() != 1 {
		t.Errorf("cache hit incremented the counter: %d", e.Evaluations())
	}
}

func TestScoreRejectsWrongDimension(t *testing.T) {
	d := smallFacetData(30, 2)
	e := newEval(t, d, KernelAlignment)
	if _, err := e.Score(partition.Coarsest(3)); err == nil {
		t.Error("wrong-dimension partition accepted")
	}
}

func TestPrincipalChainStructure(t *testing.T) {
	for m := 1; m <= 8; m++ {
		c := principalChain(m)
		if len(c) != m {
			t.Fatalf("m=%d: chain length %d, want %d", m, len(c), m)
		}
		for i, p := range c {
			if p.Rank() != i {
				t.Errorf("m=%d: chain[%d] rank = %d, want %d", m, i, p.Rank(), i)
			}
			if i > 0 && !c[i-1].Covers(p) {
				t.Errorf("m=%d: chain[%d] does not cover chain[%d]", m, i, i-1)
			}
		}
	}
}

func TestPrincipalChainMatchesLDD(t *testing.T) {
	for m := 2; m <= 6; m++ {
		if !PrincipalChainMatchesLDD(m) {
			t.Errorf("m=%d: principal chain not found in LDD decomposition", m)
		}
	}
}

func TestChainSearchLinearCost(t *testing.T) {
	// The headline complexity claim: chain search costs exactly m
	// evaluations (best-of-chain) on a free block of m features, versus
	// Bell(m) for the exhaustive cone.
	d := smallFacetData(50, 3)
	seed := partition.Coarsest(d.D()) // free block = all 8 features
	e := newEval(t, d, KernelAlignment)
	res, err := ChainSearch(e, seed, BestOfChain)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != d.D() {
		t.Errorf("chain search cost = %d, want %d (linear)", res.Evaluations, d.D())
	}
	e2 := newEval(t, d, KernelAlignment)
	ex, err := ExhaustiveCone(e2, seed)
	if err != nil {
		t.Fatal(err)
	}
	bell, _ := combinat.BellInt64(d.D())
	if int64(ex.Evaluations) != bell {
		t.Errorf("exhaustive cost = %d, want Bell(%d) = %d", ex.Evaluations, d.D(), bell)
	}
	if ex.Score < res.Score-1e-9 {
		t.Errorf("exhaustive (%v) cannot be worse than chain (%v)", ex.Score, res.Score)
	}
}

func TestFirstImprovementStopsEarlyOrEqual(t *testing.T) {
	d := smallFacetData(50, 4)
	seed := partition.Coarsest(d.D())
	eBest := newEval(t, d, KernelAlignment)
	best, err := ChainSearch(eBest, seed, BestOfChain)
	if err != nil {
		t.Fatal(err)
	}
	eFirst := newEval(t, d, KernelAlignment)
	first, err := ChainSearch(eFirst, seed, FirstImprovement)
	if err != nil {
		t.Fatal(err)
	}
	if first.Evaluations > best.Evaluations {
		t.Errorf("first-improvement used %d evals > best-of-chain %d",
			first.Evaluations, best.Evaluations)
	}
	if first.Score > best.Score+1e-12 {
		t.Error("first-improvement cannot beat best-of-chain on the same chain")
	}
}

func TestExhaustiveConeRespectsSeedBlocks(t *testing.T) {
	d := smallFacetData(40, 5)
	seed, err := TwoBlockSeed(d.D(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	e := newEval(t, d, KernelAlignment)
	res, err := ExhaustiveCone(e, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Free block is features 3..8 (6 features): Bell(6) = 203 evals.
	bell, _ := combinat.BellInt64(6)
	if int64(res.Evaluations) != bell {
		t.Errorf("cost = %d, want %d", res.Evaluations, bell)
	}
	// K = {1,2} must remain one block in every trace entry.
	for _, st := range res.Trace {
		if !st.Partition.SameBlock(1, 2) {
			t.Fatalf("seed block broken in %s", st.Partition)
		}
	}
}

// A free block past Bell(12) is refused before the cone is enumerated: at
// m=16 (the default biometric workload's cone, Bell(16) ≈ 1e10) the search
// returns an error naming the cone at once instead of exhausting memory.
func TestExhaustiveConeRefusesOversizedCone(t *testing.T) {
	d := dataset.SyntheticBiometric(dataset.DefaultBiometricConfig(), stats.NewRNG(1))
	e := newEval(t, d, KernelAlignment)
	seed, err := TwoBlockSeed(d.D(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m := d.D() - 2; m != 16 {
		t.Fatalf("free block of %d features, want 16", m)
	}
	res, err := ExhaustiveCone(e, seed)
	if err == nil {
		t.Fatal("ExhaustiveCone over a 16-feature free block succeeded, want a refusal")
	}
	if !strings.Contains(err.Error(), "m=16") || !strings.Contains(err.Error(), combinat.Bell(16).String()) {
		t.Errorf("error %q does not name m=16 and Bell(16)", err)
	}
	if res == nil || res.Evaluations != 0 {
		t.Errorf("refused cone reports %+v, want an empty result", res)
	}
	// Bell(12) = 4,213,597 is the largest cone enumerated; Bell(13) is not.
	for _, c := range []struct {
		m    int
		fits bool
	}{{12, true}, {13, false}} {
		bell, _ := combinat.BellInt64(c.m)
		if got := bell <= maxConeCandidates; got != c.fits {
			t.Errorf("Bell(%d) = %d within the cone limit: %v, want %v", c.m, bell, got, c.fits)
		}
	}
}

func TestGreedyRefineImprovesMonotonically(t *testing.T) {
	d := smallFacetData(50, 6)
	e := newEval(t, d, KernelAlignment)
	seed := partition.Coarsest(d.D())
	res, err := GreedyRefine(e, seed)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Score(seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < first-1e-12 {
		t.Errorf("greedy result %v worse than start %v", res.Score, first)
	}
	if res.Evaluations < 1 {
		t.Error("greedy should evaluate at least the seed")
	}
}

func TestBaselinesRun(t *testing.T) {
	d := smallFacetData(50, 7)
	e := newEval(t, d, KernelAlignment)
	for name, f := range map[string]func(*Evaluator) (*Result, error){
		"global":  SingleGlobalKernel,
		"uniform": UniformPerFeature,
		"oracle":  ViewOracle,
	} {
		r, err := f(e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Best.N() != d.D() {
			t.Errorf("%s: partition over %d features", name, r.Best.N())
		}
	}
}

func TestSeedFromRoughSet(t *testing.T) {
	d := smallFacetData(80, 8)
	seed, attrs, err := SeedFromRoughSet(d, 2, rough.ByAccuracy)
	if err != nil {
		t.Fatal(err)
	}
	if seed.N() != d.D() {
		t.Fatalf("seed over %d features, want %d", seed.N(), d.D())
	}
	if seed.NumBlocks() != 2 {
		t.Errorf("seed %s, want two blocks", seed)
	}
	if len(attrs) == 0 || len(attrs) > 2 {
		t.Errorf("selected attrs = %v, want 1..2", attrs)
	}
}

func TestHeadlineMKLBeatsGlobalKernel(t *testing.T) {
	// The paper's core behavioural claim (E7): on faceted data, a
	// partition-aware kernel configuration beats the single global kernel.
	train := smallFacetData(160, 9)
	test := smallFacetData(120, 10)

	e, err := NewEvaluator(train, Config{
		Objective: CVAccuracy,
		Trainer:   kernelmachine.Ridge{Lambda: 1e-2},
		Folds:     4,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := partition.Coarsest(train.D())
	chainRes, err := ChainSearch(e, seed, BestOfChain)
	if err != nil {
		t.Fatal(err)
	}
	globalRes, err := SingleGlobalKernel(e)
	if err != nil {
		t.Fatal(err)
	}
	oracleRes, err := ViewOracle(e)
	if err != nil {
		t.Fatal(err)
	}

	accChain, err := HoldoutAccuracy(train, test, chainRes.Best, Config{})
	if err != nil {
		t.Fatal(err)
	}
	accGlobal, err := HoldoutAccuracy(train, test, globalRes.Best, Config{})
	if err != nil {
		t.Fatal(err)
	}
	accOracle, err := HoldoutAccuracy(train, test, oracleRes.Best, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if accOracle < accGlobal {
		t.Errorf("view-oracle (%v) should beat global kernel (%v) on faceted data",
			accOracle, accGlobal)
	}
	if accChain < accGlobal-0.02 {
		t.Errorf("chain search (%v) should not lose to global kernel (%v)", accChain, accGlobal)
	}
	if accOracle < 0.75 {
		t.Errorf("oracle accuracy = %v, want reasonable separation", accOracle)
	}
}

func TestCVAccuracyObjectiveRuns(t *testing.T) {
	d := smallFacetData(60, 11)
	e := newEval(t, d, CVAccuracy)
	s, err := e.Score(d.ViewPartition())
	if err != nil {
		t.Fatal(err)
	}
	if s < 0 || s > 1 {
		t.Errorf("CV accuracy = %v out of [0,1]", s)
	}
}

func TestNewEvaluatorValidation(t *testing.T) {
	bad := &dataset.Dataset{X: [][]float64{{1}}, Y: []int{1, 2}}
	if _, err := NewEvaluator(bad, Config{}); err == nil {
		t.Error("invalid dataset accepted")
	}
	empty := &dataset.Dataset{}
	if _, err := NewEvaluator(empty, Config{}); err == nil {
		t.Error("empty dataset accepted")
	}
}

// PrincipalChainMatchesLDD reports whether the constructed principal chain
// for m coincides with a full-span chain of chains.Decompose(m-1).
func PrincipalChainMatchesLDD(m int) bool {
	if m < 2 {
		return true
	}
	d := chains.Decompose(m - 1)
	pc := principalChain(m)
	for _, c := range d.SymmetricChains() {
		if len(c) != len(pc) {
			continue
		}
		all := true
		for i := range c {
			if !c[i].Equal(pc[i]) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}
