package kernelmachine

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linalg"
)

// scratchWorkload builds a separable-ish ±1 problem of size n with a
// symmetric positive-definite RBF-like Gram matrix.
func scratchWorkload(n int, seed int64) (*linalg.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		y[i] = 1
		if i%2 == 0 {
			y[i] = -1
		}
		x[i] = []float64{float64(y[i]) + rng.NormFloat64()*0.6, rng.NormFloat64()}
	}
	gram := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			d0 := x[i][0] - x[j][0]
			d1 := x[i][1] - x[j][1]
			v := math.Exp(-0.7 * (d0*d0 + d1*d1))
			gram.Set(i, j, v)
			gram.Set(j, i, v)
		}
	}
	return gram, y
}

// TestRidgeTrainScratchBitIdentical: the ridge fast path must reproduce
// Train's dual coefficients bit-for-bit (CholeskyInto/SolveCholeskyInto ≡
// SolveSPD), across a shared Scratch recycled over alternating sizes.
func TestRidgeTrainScratchBitIdentical(t *testing.T) {
	sc := &Scratch{}
	for _, n := range []int{31, 30, 31, 8} {
		gram, y := scratchWorkload(n, int64(n))
		ref, err := Ridge{}.Train(gram, y)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := Ridge{}.TrainScratch(gram, y, sc)
		if err != nil {
			t.Fatal(err)
		}
		refC := ref.Coefficients()
		fastC := fast.Coefficients()
		if !reflect.DeepEqual(refC, fastC) {
			t.Fatalf("n=%d: scratch ridge coefficients differ from Train", n)
		}
		if fast.Bias() != ref.Bias() {
			t.Fatalf("n=%d: scratch ridge bias differs", n)
		}
	}
}

// TestPerceptronTrainScratchBitIdentical: the perceptron's scratch path
// must reproduce the allocating epoch loop it replaced (kept below as the
// reference) bit-for-bit across a shared Scratch recycled over alternating
// sizes — coefficients left by an earlier training must not leak in.
func TestPerceptronTrainScratchBitIdentical(t *testing.T) {
	sc := &Scratch{}
	for _, n := range []int{41, 40, 41, 16} {
		gram, y := scratchWorkload(n, 200+int64(n))
		p := Perceptron{Epochs: 7}
		want := make([]float64, n)
		for epoch := 0; epoch < p.epochs(); epoch++ {
			mistakes := 0
			for i := 0; i < n; i++ {
				s := 0.0
				for j := 0; j < n; j++ {
					if want[j] != 0 {
						s += want[j] * gram.At(j, i)
					}
				}
				if s*float64(y[i]) <= 0 {
					want[i] += float64(y[i])
					mistakes++
				}
			}
			if mistakes == 0 {
				break
			}
		}
		fast, err := p.TrainScratch(gram, y, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got := fast.Coefficients(); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: scratch perceptron coefficients %v, reference %v", n, got, want)
		}
		if fast.Bias() != 0 {
			t.Fatalf("n=%d: scratch perceptron bias %v, want 0", n, fast.Bias())
		}
	}
}

// TestSVMTrainScratchBitIdentical: Train delegates to TrainScratch (one SMO
// implementation), so a shared recycled Scratch must reproduce Train's
// model bit-for-bit — stale buffer contents from earlier, larger trainings
// must not leak into the optimization.
func TestSVMTrainScratchBitIdentical(t *testing.T) {
	sc := &Scratch{}
	for _, n := range []int{41, 40, 41, 16} {
		gram, y := scratchWorkload(n, 100+int64(n))
		ref, err := (SVM{C: 1, Seed: 5}).Train(gram, y)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := (SVM{C: 1, Seed: 5}).TrainScratch(gram, y, sc)
		if err != nil {
			t.Fatal(err)
		}
		refC := ref.Coefficients()
		fastC := fast.Coefficients()
		if !reflect.DeepEqual(refC, fastC) {
			t.Fatalf("n=%d: scratch SMO coefficients differ from Train", n)
		}
		if fast.Bias() != ref.Bias() {
			t.Fatalf("n=%d: bias %v (scratch) vs %v (ref)", n, fast.Bias(), ref.Bias())
		}
		if got, want := Classify(fast.Scores(gram)), Classify(ref.Scores(gram)); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: scratch SMO classifications differ from Train", n)
		}
	}
}

// TestScoresIntoMatchesScores covers both routes of the scratch scorer:
// zero bias (MulVecInto) and nonzero bias (row loop).
func TestScoresIntoMatchesScores(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cross := linalg.NewMatrix(13, 7)
	for i := range cross.Data {
		cross.Data[i] = rng.NormFloat64()
	}
	coeff := make([]float64, 7)
	for i := range coeff {
		coeff[i] = rng.NormFloat64()
	}
	var buf []float64
	for _, b := range []float64{0, -0.37} {
		m := &DualModel{coeff: coeff, b: b}
		want := m.Scores(cross)
		buf = m.ScoresInto(buf, cross)
		if !reflect.DeepEqual(buf, want) {
			t.Fatalf("b=%v: ScoresInto differs from Scores", b)
		}
	}
}

func TestClassifyInto(t *testing.T) {
	scores := []float64{-1.5, 0, 2, -0.0001}
	want := Classify(scores)
	buf := make([]int, 1)
	buf = ClassifyInto(buf, scores)
	if !reflect.DeepEqual(buf, want) {
		t.Fatalf("ClassifyInto = %v, want %v", buf, want)
	}
}

// TestScratchModelAliasing documents the ownership rule: a model from
// TrainScratch is valid only until the next TrainScratch on the same
// Scratch.
func TestScratchModelAliasing(t *testing.T) {
	gram, y := scratchWorkload(12, 3)
	sc := &Scratch{}
	m1, err := Ridge{}.TrainScratch(gram, y, sc)
	if err != nil {
		t.Fatal(err)
	}
	first := m1.Coefficients()
	m2, err := Ridge{Lambda: 5}.TrainScratch(gram, y, sc)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("TrainScratch should reuse the Scratch-owned model")
	}
	second := m2.Coefficients()
	if reflect.DeepEqual(first, second) {
		t.Fatal("expected different solutions for different lambdas (sanity)")
	}
}
