package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for the tail to be more than one unlucky sample.
const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the midpoint median of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return s[k]
}

// tail is the highest percentile of a sample that still has at least
// minBeyond samples above it.
type tail struct {
	Value  float64 // the sample at that percentile
	Pct    float64 // share of samples at or below Value, in percent
	Beyond int     // samples strictly above Value's rank
	N      int     // sample count
}

// tailOf applies the tail rule: for n sorted samples the sample at index
// n-1-minBeyond has exactly minBeyond samples beyond it. A tail is never
// reported below the median, so with fewer than 2*minBeyond samples the
// rule falls back to the median itself (Pct 50).
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	k := n - 1 - minBeyond
	if k < n/2 {
		return tail{Value: median(xs), Pct: 50, Beyond: n / 2, N: n}
	}
	s := sortedCopy(xs)
	return tail{Value: s[k], Pct: 100 * float64(k+1) / float64(n), Beyond: n - 1 - k, N: n}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to float milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// reaches does no work and wastes none).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
