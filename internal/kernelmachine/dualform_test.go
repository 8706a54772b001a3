package kernelmachine

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/linalg"
)

// randomSPDGram builds a small random Gram-like SPD matrix (X·Xᵀ + εI).
func randomSPDGram(n, d int, rng *rand.Rand) *linalg.Matrix {
	x := linalg.NewMatrix(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	g := linalg.NewMatrix(n, n)
	linalg.SyrkInto(g, x)
	g.AddScaledDiag(1e-6)
	return g
}

func randomLabels(n int, rng *rand.Rand) []int {
	y := make([]int, n)
	for i := range y {
		if rng.Float64() < 0.5 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return y
}

// TestDualFormRoundTripScoresBitIdentically checks the persistence
// contract: extracting Coefficients/Bias from a trained model and rebuilding
// with NewDualModel scores bit-identically for every trainer.
func TestDualFormRoundTripScoresBitIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, d, m = 24, 5, 9
	gram := randomSPDGram(n, d, rng)
	y := randomLabels(n, rng)
	cross := linalg.NewMatrix(m, n)
	for i := range cross.Data {
		cross.Data[i] = rng.NormFloat64()
	}
	for _, tr := range []Trainer{Ridge{Lambda: 1e-2}, SVM{C: 1, Seed: 5}, Perceptron{Epochs: 10}} {
		model, err := tr.Train(gram, y)
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		rebuilt := NewDualModel(model.Coefficients(), model.Bias())
		want := model.Scores(cross)
		got := rebuilt.Scores(cross)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%v: score %d = %v after round trip, want %v", tr, i, got[i], want[i])
			}
		}
	}
}

// TestNewDualModelCopiesCoefficients guards against aliasing: mutating the
// source slice after construction must not change the model.
func TestNewDualModelCopiesCoefficients(t *testing.T) {
	coeff := []float64{1, 2, 3}
	m := NewDualModel(coeff, 0.5)
	coeff[0] = 99
	got := m.Coefficients()
	if got[0] != 1 {
		t.Fatalf("coefficients aliased: got %v", got)
	}
}

// TestScoresIntoRejectsNarrowCrossGram checks the explicit shape validation:
// a cross-Gram with fewer columns than dual coefficients must fail with a
// clear message instead of an opaque slice-bounds panic.
func TestScoresIntoRejectsNarrowCrossGram(t *testing.T) {
	m := NewDualModel([]float64{1, 2, 3, 4}, 0.25)
	narrow := linalg.NewMatrix(2, 3)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("scoring a too-narrow cross-Gram did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "dual coefficients") {
			t.Fatalf("panic %v lacks the clear shape message", r)
		}
	}()
	m.Scores(narrow)
}

// TestScoresToleratesWiderCrossGram pins the documented co-training
// behaviour: trailing extra columns are ignored, not an error.
func TestScoresToleratesWiderCrossGram(t *testing.T) {
	m := NewDualModel([]float64{1, 2}, 0.5)
	wide := linalg.NewMatrix(1, 4)
	copy(wide.Data, []float64{3, 4, 100, 200})
	got := m.Scores(wide)
	want := 0.5 + 1*3 + 2*4
	if got[0] != want {
		t.Fatalf("score = %v, want %v", got[0], want)
	}
}
