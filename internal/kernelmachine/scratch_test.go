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

// TestSVMReseededScratchMatchesFreshSource: a Scratch reused across
// trainings with different seeds and sizes reseeds its one random source
// per call, so every model's scores equal, bit for bit, those of a run on
// a fresh Scratch, whose source is new. A reused Scratch trains without
// allocating.
func TestSVMReseededScratchMatchesFreshSource(t *testing.T) {
	sc := &Scratch{}
	for i, n := range []int{41, 40, 41, 16, 40} {
		gram, y := scratchWorkload(n, 300+int64(n))
		svm := SVM{C: 1, Seed: int64(i % 3)}
		fresh, err := svm.TrainScratch(gram, y, &Scratch{})
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Scores(gram)
		got, err := svm.TrainScratch(gram, y, sc)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range got.Scores(gram) {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("n=%d seed=%d: score %d = %v on the reused Scratch, %v on a fresh one", n, svm.Seed, j, v, want[j])
			}
		}
	}
	gram, y := scratchWorkload(40, 340)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := (SVM{C: 1, Seed: 2}).TrainScratch(gram, y, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("TrainScratch on a reused Scratch: %v allocations per call, want 0", allocs)
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

// TestSolveRidgePairMatchesFitRidge: two systems prepared in their own
// scratch and solved as a pair give each one's FitRidge coefficients bit
// for bit, at both widths, for CV-fold-like training sets of equal orders
// and of orders that differ by one, either one first, over recycled
// scratch. Row 5 is decoupled from the others and its Gram diagonal is
// negative, so the first ridge of every set that trains on it fails and
// the heavier 1 + λ·n one solves it, from a fresh gather of the system the
// failed factor overwrote; at a diagonal no ridge rescues,
// Prepare fails where FitRidge does.
func TestSolveRidgePairMatchesFitRidge(t *testing.T) {
	gram, y := scratchWorkload(41, 9)
	for j := 0; j < gram.Cols; j++ {
		gram.Set(5, j, 0)
		gram.Set(j, 5, 0)
	}
	gram.Set(5, 5, -1)
	span := func(lo, hi int) []int {
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		return idx
	}
	withRow5, wide, narrow := span(0, 20), span(20, 41), span(21, 41)
	labels := func(idx []int) []int {
		out := make([]int, len(idx))
		for i, a := range idx {
			out[i] = y[a]
		}
		return out
	}
	r := Ridge{}
	sys := linalg.GatherLowerInto(nil, gram, withRow5)
	sys.AddScaledDiag(r.lambda() * float64(len(withRow5)) / 10)
	if linalg.CholeskyInto(sys, sys) == nil {
		t.Fatal("premise: the first ridge of row 5's training set factors")
	}
	// The fallback's coefficients are the heavier ridge's, solved from a
	// fresh gather.
	heavy := linalg.GatherInto(nil, gram, withRow5, withRow5)
	heavy.AddScaledDiag(1 + r.lambda()*float64(len(withRow5)))
	if err := linalg.CholeskyInto(heavy, heavy); err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, len(withRow5))
	for i, v := range labels(withRow5) {
		rhs[i] = float64(v)
	}
	wantHeavy := linalg.SolveCholeskyInto(nil, heavy, rhs)
	gotHeavy, err := FitRidge(r, gram, withRow5, labels(withRow5), &RidgeScratch[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotHeavy, wantHeavy) {
		t.Fatal("the fallback's coefficients are not the heavier ridge's")
	}
	gram32 := linalg.Convert[float32](nil, gram)
	var pair64 [2]RidgeScratch[float64]
	var pair32 [2]RidgeScratch[float32]
	for _, sets := range [][2][]int{{withRow5, wide}, {wide, withRow5}, {withRow5, narrow}, {narrow, wide}, {wide, narrow}} {
		for i, idx := range sets {
			if err := pair64[i].Prepare(r, gram, idx, labels(idx)); err != nil {
				t.Fatal(err)
			}
			if err := pair32[i].Prepare(r, gram32, idx, labels(idx)); err != nil {
				t.Fatal(err)
			}
		}
		var got64 [2][]float64
		var got32 [2][]float32
		got64[0], got64[1] = SolveRidgePair(&pair64[0], &pair64[1])
		got32[0], got32[1] = SolveRidgePair(&pair32[0], &pair32[1])
		for i, idx := range sets {
			want, err := FitRidge(r, gram, idx, labels(idx), &RidgeScratch[float64]{})
			if err != nil {
				t.Fatal(err)
			}
			want32, err := FitRidge(r, gram32, idx, labels(idx), &RidgeScratch[float32]{})
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if math.Float64bits(got64[i][k]) != math.Float64bits(want[k]) || math.Float32bits(got32[i][k]) != math.Float32bits(want32[k]) {
					t.Fatalf("orders %d,%d system %d: coefficient %d = %v / %v, FitRidge %v / %v",
						len(sets[0]), len(sets[1]), i, k, got64[i][k], got32[i][k], want[k], want32[k])
				}
			}
		}
	}
	gram.Set(5, 5, -100)
	if err := pair64[0].Prepare(r, gram, withRow5, labels(withRow5)); err == nil {
		t.Fatal("Prepare succeeded on a system no ridge rescues")
	}
	if _, err := FitRidge(r, gram, withRow5, labels(withRow5), &RidgeScratch[float64]{}); err == nil {
		t.Fatal("FitRidge succeeded on a system no ridge rescues")
	}
}
