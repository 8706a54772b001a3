// Package stats provides the statistical substrate for the evaluation
// harness: deterministic pseudo-random generation, summary statistics,
// classification and regression metrics, and cross-validation splits.
//
// All randomness in the repository flows through explicitly seeded
// *rand.Rand instances so that every experiment in EXPERIMENTS.md is
// reproducible bit-for-bit.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mode returns the most frequent value in xs; ties break toward the smaller
// value. It returns 0 for an empty slice.
func Mode(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	counts := map[float64]int{}
	for _, x := range xs {
		counts[x]++
	}
	best, bestN := math.Inf(1), -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// Accuracy returns the fraction of positions where pred equals truth.
// It panics if lengths differ; it returns 0 for empty input.
func Accuracy(pred, truth []int) float64 {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("stats: Accuracy length mismatch %d vs %d", len(pred), len(truth)))
	}
	if len(pred) == 0 {
		return 0
	}
	ok := 0
	for i, p := range pred {
		if p == truth[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(pred))
}

// RMSE returns the root-mean-square error between pred and truth.
func RMSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("stats: RMSE length mismatch %d vs %d", len(pred), len(truth)))
	}
	if len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i, p := range pred {
		d := p - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// KFold returns k (train, test) index splits of n items, shuffled with rng.
// Folds differ in size by at most one element and cover every index exactly
// once as a test item.
func KFold(n, k int, rng *rand.Rand) (trains, tests [][]int) {
	if k < 2 {
		panic("stats: KFold requires k >= 2")
	}
	if k > n {
		k = n
	}
	idx := rng.Perm(n)
	folds := make([][]int, k)
	for i, j := range idx {
		folds[i%k] = append(folds[i%k], j)
	}
	for i := 0; i < k; i++ {
		var train []int
		for j := 0; j < k; j++ {
			if j != i {
				train = append(train, folds[j]...)
			}
		}
		trains = append(trains, train)
		tests = append(tests, folds[i])
	}
	return trains, tests
}

// TrainTestSplit shuffles n indices and splits them with the given train
// fraction (clamped to [0,1]).
func TrainTestSplit(n int, trainFrac float64, rng *rand.Rand) (train, test []int) {
	if trainFrac < 0 {
		trainFrac = 0
	}
	if trainFrac > 1 {
		trainFrac = 1
	}
	idx := rng.Perm(n)
	cut := int(math.Round(trainFrac * float64(n)))
	return idx[:cut], idx[cut:]
}

// Entropy returns the Shannon entropy (base 2) of a discrete distribution
// given by counts; zero counts contribute nothing.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// ArgMax returns the index of the largest value; ties break to the first.
// It returns -1 for an empty slice.
func ArgMax(xs []float64) int {
	best := -1
	bv := math.Inf(-1)
	for i, x := range xs {
		if x > bv {
			best, bv = i, x
		}
	}
	return best
}

// ECE returns the expected calibration error of predicted positive-class
// probabilities against ±1 labels, using equal-width probability bins:
// the bin-weighted mean |empirical positive rate - mean predicted
// probability|. Lower is better; 0 is perfectly calibrated.
func ECE(probs []float64, y []int, bins int) float64 {
	if len(probs) != len(y) {
		panic(fmt.Sprintf("stats: ECE length mismatch %d vs %d", len(probs), len(y)))
	}
	if len(probs) == 0 {
		return 0
	}
	if bins < 1 {
		bins = 10
	}
	count := make([]int, bins)
	sumP := make([]float64, bins)
	sumPos := make([]int, bins)
	for i, p := range probs {
		b := int(p * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		count[b]++
		sumP[b] += p
		if y[i] == 1 {
			sumPos[b]++
		}
	}
	ece := 0.0
	n := float64(len(probs))
	for b := 0; b < bins; b++ {
		if count[b] == 0 {
			continue
		}
		conf := sumP[b] / float64(count[b])
		acc := float64(sumPos[b]) / float64(count[b])
		ece += float64(count[b]) / n * math.Abs(acc-conf)
	}
	return ece
}

// Autocorrelation returns the lag-k sample autocorrelation of the series,
// or 0 when it is undefined (short series or zero variance). Section I-B
// of the paper lists "introduction of artificial autocorrelation in time
// series" among the preparation distortions an integrated design must
// account for; this is the statistic that detects it.
func Autocorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag <= 0 || n <= lag+1 {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
		if i+lag < n {
			num += d * (xs[i+lag] - m)
		}
	}
	if den < 1e-300 {
		return 0
	}
	return num / den
}
