package kernelmachine

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/stats"
)

// linearlySeparable builds a 2-D two-cluster problem.
func linearlySeparable(n int, gap float64, seed int64) (x [][]float64, y []int) {
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		label := 1
		if i%2 == 0 {
			label = -1
		}
		x = append(x, []float64{
			float64(label)*gap + rng.NormFloat64()*0.3,
			rng.NormFloat64() * 0.3,
		})
		y = append(y, label)
	}
	return x, y
}

// xorData builds the classic non-linearly-separable XOR problem.
func xorData(n int, seed int64) (x [][]float64, y []int) {
	rng := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		a, b := rng.Intn(2) == 1, rng.Intn(2) == 1
		label := -1
		if a != b {
			label = 1
		}
		sgn := func(v bool) float64 {
			if v {
				return 1
			}
			return -1
		}
		x = append(x, []float64{sgn(a) + rng.NormFloat64()*0.2, sgn(b) + rng.NormFloat64()*0.2})
		y = append(y, label)
	}
	return x, y
}

func trainEval(t *testing.T, tr Trainer, k kernel.Kernel, xTr [][]float64, yTr []int, xTe [][]float64, yTe []int) float64 {
	t.Helper()
	gram := kernel.Gram(k, xTr)
	m, err := tr.Train(gram, yTr)
	if err != nil {
		t.Fatalf("%v: %v", tr, err)
	}
	cross := kernel.CrossGram(k, xTe, xTr)
	return stats.Accuracy(Classify(m.Scores(cross)), yTe)
}

func TestSVMLinearSeparable(t *testing.T) {
	xTr, yTr := linearlySeparable(60, 1.5, 1)
	xTe, yTe := linearlySeparable(40, 1.5, 2)
	acc := trainEval(t, SVM{C: 1}, kernel.Linear{}, xTr, yTr, xTe, yTe)
	if acc < 0.95 {
		t.Errorf("SVM linear accuracy = %v, want >= 0.95", acc)
	}
}

func TestSVMXORNeedsRBF(t *testing.T) {
	xTr, yTr := xorData(80, 3)
	xTe, yTe := xorData(60, 4)
	linAcc := trainEval(t, SVM{C: 1}, kernel.Linear{}, xTr, yTr, xTe, yTe)
	rbfAcc := trainEval(t, SVM{C: 1}, kernel.RBF{Gamma: 1}, xTr, yTr, xTe, yTe)
	if rbfAcc < 0.9 {
		t.Errorf("SVM rbf on XOR = %v, want >= 0.9", rbfAcc)
	}
	if rbfAcc-linAcc < 0.1 {
		t.Errorf("SVM rbf (%v) should clearly beat linear (%v) on XOR", rbfAcc, linAcc)
	}
}

func TestRidgeLinearSeparable(t *testing.T) {
	xTr, yTr := linearlySeparable(60, 1.5, 5)
	xTe, yTe := linearlySeparable(40, 1.5, 6)
	acc := trainEval(t, Ridge{}, kernel.Linear{}, xTr, yTr, xTe, yTe)
	if acc < 0.95 {
		t.Errorf("ridge accuracy = %v, want >= 0.95", acc)
	}
}

func TestRidgeXORWithRBF(t *testing.T) {
	xTr, yTr := xorData(80, 7)
	xTe, yTe := xorData(60, 8)
	acc := trainEval(t, Ridge{Lambda: 1e-2}, kernel.RBF{Gamma: 1}, xTr, yTr, xTe, yTe)
	if acc < 0.9 {
		t.Errorf("ridge rbf on XOR = %v, want >= 0.9", acc)
	}
}

func TestPerceptronLinearSeparable(t *testing.T) {
	xTr, yTr := linearlySeparable(60, 2.0, 9)
	xTe, yTe := linearlySeparable(40, 2.0, 10)
	acc := trainEval(t, Perceptron{}, kernel.Linear{}, xTr, yTr, xTe, yTe)
	if acc < 0.9 {
		t.Errorf("perceptron accuracy = %v, want >= 0.9", acc)
	}
}

func TestValidationErrors(t *testing.T) {
	g := linalg.NewMatrix(2, 2)
	for _, tr := range []Trainer{SVM{}, Ridge{}, Perceptron{}} {
		if _, err := tr.Train(g, []int{1}); err == nil {
			t.Errorf("%v: label/rows mismatch accepted", tr)
		}
		if _, err := tr.Train(g, []int{1, 2}); err == nil {
			t.Errorf("%v: non-±1 label accepted", tr)
		}
		if _, err := tr.Train(linalg.NewMatrix(2, 3), []int{1, -1}); err == nil {
			t.Errorf("%v: non-square gram accepted", tr)
		}
		if _, err := tr.Train(linalg.NewMatrix(0, 0), nil); err == nil {
			t.Errorf("%v: empty training set accepted", tr)
		}
	}
}

func TestClassify(t *testing.T) {
	got := Classify([]float64{-0.5, 0, 2})
	want := []int{-1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Classify[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSVMDeterministicGivenSeed(t *testing.T) {
	xTr, yTr := linearlySeparable(40, 1.0, 11)
	gram := kernel.Gram(kernel.Linear{}, xTr)
	m1, err := SVM{Seed: 5}.Train(gram, yTr)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := SVM{Seed: 5}.Train(gram, yTr)
	if err != nil {
		t.Fatal(err)
	}
	s1 := m1.Scores(gram)
	s2 := m2.Scores(gram)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same seed should give identical models")
		}
	}
}

func TestDualModelAccessors(t *testing.T) {
	xTr, yTr := linearlySeparable(30, 1.5, 12)
	gram := kernel.Gram(kernel.Linear{}, xTr)
	m, err := SVM{}.Train(gram, yTr)
	if err != nil {
		t.Fatal(err)
	}
	coeff := m.Coefficients()
	if len(coeff) != 30 {
		t.Fatalf("coefficients = %d, want 30", len(coeff))
	}
	// Dual constraint: sum alpha_i y_i = 0 (coeff_i = alpha_i y_i).
	sum := 0.0
	for _, c := range coeff {
		sum += c
	}
	if math.Abs(sum) > 1e-6 {
		t.Errorf("sum of dual coefficients = %v, want ≈ 0", sum)
	}
	_ = m.Bias()
}

func TestRidgeScoresSignalMargin(t *testing.T) {
	// On well-separated data, ridge scores should have the right sign with
	// a margin for nearly every training point.
	xTr, yTr := linearlySeparable(50, 2.0, 13)
	gram := kernel.Gram(kernel.RBF{Gamma: 0.5}, xTr)
	m, err := Ridge{Lambda: 1e-3}.Train(gram, yTr)
	if err != nil {
		t.Fatal(err)
	}
	scores := m.Scores(gram)
	ok := 0
	for i, s := range scores {
		if s*float64(yTr[i]) > 0 {
			ok++
		}
	}
	if ok < 48 {
		t.Errorf("ridge fits %d/50 training points", ok)
	}
}

func TestSingleClassTraining(t *testing.T) {
	// All-positive training data is legal (labels are ±1) and every learner
	// should predict the positive class everywhere.
	x := [][]float64{{1, 0}, {2, 0}, {3, 0}, {4, 0}}
	y := []int{1, 1, 1, 1}
	gram := kernel.Gram(kernel.RBF{Gamma: 1}, x)
	for _, tr := range []Trainer{SVM{}, Ridge{}, Perceptron{}} {
		m, err := tr.Train(gram, y)
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		test := [][]float64{{0, 5}, {2.5, 0}}
		cross := kernel.CrossGram(kernel.RBF{Gamma: 1}, test, x)
		pred := Classify(m.Scores(cross))
		for i, p := range pred {
			if p != 1 {
				t.Errorf("%v: single-class prediction[%d] = %d, want 1", tr, i, p)
			}
		}
	}
}

func TestRidgeFallbackOnNearSingularGram(t *testing.T) {
	// Duplicate rows make the linear Gram singular; ridge must still train
	// via its fallback jitter.
	x := [][]float64{{-1, -1}, {-1, -1}, {1, 1}, {1, 1}}
	y := []int{-1, -1, 1, 1}
	gram := kernel.Gram(kernel.Linear{}, x)
	m, err := Ridge{Lambda: 1e-9}.Train(gram, y)
	if err != nil {
		t.Fatalf("ridge on singular gram: %v", err)
	}
	pred := Classify(m.Scores(gram))
	if acc := stats.Accuracy(pred, y); acc < 0.99 {
		t.Errorf("training accuracy = %v", acc)
	}
}

func TestSVMRespectsBoxConstraint(t *testing.T) {
	xTr, yTr := linearlySeparable(40, 0.5, 15) // overlapping classes
	gram := kernel.Gram(kernel.Linear{}, xTr)
	c := 0.7
	m, err := SVM{C: c}.Train(gram, yTr)
	if err != nil {
		t.Fatal(err)
	}
	for i, coeff := range m.Coefficients() {
		alpha := coeff * float64(yTr[i]) // alpha_i = coeff_i * y_i
		if alpha < -1e-9 || alpha > c+1e-9 {
			t.Errorf("alpha[%d] = %v outside [0, %v]", i, alpha, c)
		}
	}
}
