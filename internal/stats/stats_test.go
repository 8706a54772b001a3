package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even Median = %v, want 2.5", got)
	}
	if Median(nil) != 0 {
		t.Error("empty Median should be 0")
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 {
		t.Error("Median mutated input")
	}
}

func TestMode(t *testing.T) {
	if got := Mode([]float64{1, 2, 2, 3}); got != 2 {
		t.Errorf("Mode = %v, want 2", got)
	}
	// Tie breaks toward smaller value.
	if got := Mode([]float64{5, 5, 1, 1}); got != 1 {
		t.Errorf("Mode tie = %v, want 1", got)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, -1, 1, 1}, []int{1, -1, -1, 1}); got != 0.75 {
		t.Errorf("Accuracy = %v, want 0.75", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Error("empty Accuracy should be 0")
	}
}

func TestRMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{1, 2, 5}
	if got := RMSE(pred, truth); math.Abs(got-math.Sqrt(4.0/3)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
}

func TestKFoldPartitionProperty(t *testing.T) {
	f := func(seedU uint32, n8, k8 uint8) bool {
		n := int(n8%50) + 4
		k := int(k8%8) + 2
		rng := NewRNG(int64(seedU))
		trains, tests := KFold(n, k, rng)
		effK := k
		if effK > n {
			effK = n
		}
		if len(trains) != effK || len(tests) != effK {
			return false
		}
		seen := make([]bool, n)
		for fi := range tests {
			inTest := map[int]bool{}
			for _, i := range tests[fi] {
				if seen[i] {
					return false // index tested twice
				}
				seen[i] = true
				inTest[i] = true
			}
			if len(trains[fi])+len(tests[fi]) != n {
				return false
			}
			for _, i := range trains[fi] {
				if inTest[i] {
					return false // overlap within fold
				}
			}
		}
		for _, s := range seen {
			if !s {
				return false // index never tested
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKFoldBalance(t *testing.T) {
	trains, tests := KFold(10, 3, NewRNG(1))
	_ = trains
	sizes := []int{len(tests[0]), len(tests[1]), len(tests[2])}
	sort.Ints(sizes)
	if sizes[0] != 3 || sizes[2] != 4 {
		t.Errorf("fold sizes = %v, want within one of each other (3,3,4)", sizes)
	}
}

func TestTrainTestSplit(t *testing.T) {
	train, test := TrainTestSplit(10, 0.7, NewRNG(3))
	if len(train) != 7 || len(test) != 3 {
		t.Errorf("split = %d/%d, want 7/3", len(train), len(test))
	}
	all := map[int]bool{}
	for _, i := range append(append([]int{}, train...), test...) {
		all[i] = true
	}
	if len(all) != 10 {
		t.Errorf("split lost indices: %v %v", train, test)
	}
	// Clamping.
	tr, te := TrainTestSplit(5, 1.5, NewRNG(3))
	if len(tr) != 5 || len(te) != 0 {
		t.Errorf("clamped split = %d/%d", len(tr), len(te))
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]int{1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Entropy(1,1) = %v, want 1", got)
	}
	if got := Entropy([]int{4, 0}); got != 0 {
		t.Errorf("Entropy(4,0) = %v, want 0", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Errorf("Entropy(nil) = %v, want 0", got)
	}
	if got := Entropy([]int{1, 1, 1, 1}); math.Abs(got-2) > 1e-12 {
		t.Errorf("Entropy uniform 4 = %v, want 2", got)
	}
}

func TestArgMax(t *testing.T) {
	xs := []float64{3, 9, 9, -2}
	if got := ArgMax(xs); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (first of tie)", got)
	}
	if ArgMax(nil) != -1 {
		t.Error("empty ArgMax should be -1")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should give identical streams")
		}
	}
}

func TestECE(t *testing.T) {
	// Perfectly calibrated: predicted probability equals empirical rate.
	probs := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	y := []int{1, 1, 1, 1, 1, 1, 1, 1, 1, -1} // 90% positive
	if got := ECE(probs, y, 10); math.Abs(got) > 1e-9 {
		t.Errorf("calibrated ECE = %v, want 0", got)
	}
	// Maximally overconfident: predicts 1.0 but only half are positive.
	over := []float64{1, 1, 1, 1}
	yo := []int{1, -1, 1, -1}
	if got := ECE(over, yo, 10); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("overconfident ECE = %v, want 0.5", got)
	}
	if ECE(nil, nil, 10) != 0 {
		t.Error("empty ECE should be 0")
	}
	// Bin clamp for p = 1.0 and p < 0.
	_ = ECE([]float64{1.0, -0.1}, []int{1, -1}, 5)
}

func TestECEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ECE([]float64{0.5}, []int{1, -1}, 10)
}

func TestAutocorrelation(t *testing.T) {
	// White noise: near-zero lag-1 autocorrelation.
	rng := NewRNG(5)
	noise := make([]float64, 3000)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	if got := Autocorrelation(noise, 1); math.Abs(got) > 0.05 {
		t.Errorf("white-noise lag-1 = %v, want ≈ 0", got)
	}
	// A slow sinusoid: strong positive lag-1 autocorrelation.
	smooth := make([]float64, 500)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i) / 20)
	}
	if got := Autocorrelation(smooth, 1); got < 0.9 {
		t.Errorf("smooth lag-1 = %v, want > 0.9", got)
	}
	// Degenerate cases.
	if Autocorrelation(nil, 1) != 0 || Autocorrelation([]float64{1, 2}, 0) != 0 {
		t.Error("degenerate autocorrelation should be 0")
	}
	if Autocorrelation([]float64{3, 3, 3, 3}, 1) != 0 {
		t.Error("constant series should give 0")
	}
}
