package main

import (
	"math"
	"testing"
)

func TestTailRuleKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		value  float64 // samples are 1..n, so the value is its rank
		pct    float64
		beyond int
	}{
		{n: 1000, value: 990, pct: 99, beyond: 10},
		{n: 100, value: 90, pct: 90, beyond: 10},
		{n: 21, value: 11, pct: 100 * 11.0 / 21, beyond: 10},
		// Too few samples for a tail above the median: report the median.
		{n: 15, value: 8, pct: 50, beyond: 7},
		{n: 4, value: 2.5, pct: 50, beyond: 2},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: tailOf must sort
		}
		got := tailOf(xs)
		if got.Value != tc.value || math.Abs(got.Pct-tc.pct) > 1e-9 || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want value %v pct %v beyond %d", tc.n, got, tc.value, tc.pct, tc.beyond)
		}
		above := 0
		for _, x := range xs {
			if x > got.Value {
				above++
			}
		}
		if tc.n >= 2*minBeyond && above < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, above)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("empty sample: got %+v", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v", m)
	}
	if p := percentile(xs, 99); p != 5 {
		t.Errorf("p99 = %v", p)
	}
	if p := percentile(xs, 20); p != 1 {
		t.Errorf("p20 = %v", p)
	}
	if xs[0] != 5 {
		t.Error("median sorted its input in place")
	}
}
