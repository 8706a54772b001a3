// Package preprocess implements the data-preparation and data-reduction
// sub-phases of Section IV: time-stamp merge integration of unsynchronized
// sensor streams (the paper's prototypical integration example),
// normalization, noise identification and cleaning, and instance/feature
// selection.
package preprocess

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sensors"
	"repro/internal/stats"
)

// MergedRecords is the d-dimensional record table built from d 1-D streams:
// one row per merged time-stamp, with a missingness mask for quantities not
// observed at that stamp.
type MergedRecords struct {
	Times     []float64
	Quantity  []string
	X         [][]float64
	Mask      [][]bool
	Tolerance float64
}

// MergeStreams performs the paper's integration step: "first merging the
// time-stamps into an ordered list: the data available at each time-stamp
// will naturally compose a multi-dimensional record typically plagued by
// missing feature-values."
//
// Time-stamps closer than tol collapse into one record; a stream
// contributes its reading to the record whose stamp is within tol,
// otherwise the cell is missing.
func MergeStreams(streams []sensors.Stream, tol float64) (*MergedRecords, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("preprocess: no streams to merge")
	}
	if tol < 0 {
		return nil, fmt.Errorf("preprocess: negative tolerance %g", tol)
	}
	var stamps []float64
	for _, s := range streams {
		for _, r := range s.Readings {
			stamps = append(stamps, r.Time)
		}
	}
	if len(stamps) == 0 {
		return nil, fmt.Errorf("preprocess: all streams empty")
	}
	sort.Float64s(stamps)
	var merged []float64
	for _, t := range stamps {
		if len(merged) == 0 || t-merged[len(merged)-1] > tol {
			merged = append(merged, t)
		}
	}
	out := &MergedRecords{Times: merged, Tolerance: tol}
	for _, s := range streams {
		out.Quantity = append(out.Quantity, s.Quantity)
	}
	n, d := len(merged), len(streams)
	out.X = make([][]float64, n)
	out.Mask = make([][]bool, n)
	for i := range out.X {
		out.X[i] = make([]float64, d)
		out.Mask[i] = make([]bool, d)
		for j := range out.Mask[i] {
			out.Mask[i][j] = true
		}
	}
	for j, s := range streams {
		for _, r := range s.Readings {
			i := nearestIndex(merged, r.Time)
			if math.Abs(merged[i]-r.Time) <= tol {
				out.X[i][j] = r.Value
				out.Mask[i][j] = false
			}
		}
	}
	return out, nil
}

// nearestIndex returns the index of the merged stamp closest to t.
func nearestIndex(sorted []float64, t float64) int {
	i := sort.SearchFloat64s(sorted, t)
	if i == 0 {
		return 0
	}
	if i == len(sorted) {
		return len(sorted) - 1
	}
	if t-sorted[i-1] <= sorted[i]-t {
		return i - 1
	}
	return i
}

// MissingFraction returns the fraction of missing cells in the records.
func (m *MergedRecords) MissingFraction() float64 {
	if len(m.X) == 0 {
		return 0
	}
	miss, total := 0, 0
	for i := range m.Mask {
		for j := range m.Mask[i] {
			total++
			if m.Mask[i][j] {
				miss++
			}
		}
	}
	return float64(miss) / float64(total)
}

// Normalize rescales each column of x to [0, 1] in place (observed cells;
// mask may be nil). Constant columns map to 0.
func Normalize(x [][]float64, mask [][]bool) {
	if len(x) == 0 {
		return
	}
	d := len(x[0])
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range x {
			if mask != nil && mask[i][j] {
				continue
			}
			if x[i][j] < lo {
				lo = x[i][j]
			}
			if x[i][j] > hi {
				hi = x[i][j]
			}
		}
		span := hi - lo
		for i := range x {
			if mask != nil && mask[i][j] {
				continue
			}
			if span > 1e-12 {
				x[i][j] = (x[i][j] - lo) / span
			} else {
				x[i][j] = 0
			}
		}
	}
}

// IdentifyNoise flags cells more than zThresh standard deviations from
// their column mean — the "noise identification" preparation task. It
// returns the flagged (row, col) pairs.
func IdentifyNoise(x [][]float64, mask [][]bool, zThresh float64) [][2]int {
	if len(x) == 0 || zThresh <= 0 {
		return nil
	}
	d := len(x[0])
	var out [][2]int
	for j := 0; j < d; j++ {
		var obs []float64
		for i := range x {
			if mask != nil && mask[i][j] {
				continue
			}
			obs = append(obs, x[i][j])
		}
		m, sd := stats.Mean(obs), stats.StdDev(obs)
		if sd < 1e-12 {
			continue
		}
		for i := range x {
			if mask != nil && mask[i][j] {
				continue
			}
			if math.Abs(x[i][j]-m) > zThresh*sd {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// CleanNoise marks the flagged cells as missing (so an imputer can
// re-estimate them) — the "data cleaning" task.
func CleanNoise(x [][]float64, mask [][]bool, flagged [][2]int) {
	for _, f := range flagged {
		mask[f[0]][f[1]] = true
		x[f[0]][f[1]] = 0
	}
}

// SelectInstances is the data-reduction task of instance selection: it
// keeps every stride-th row (a systematic sample preserving temporal
// coverage) and returns the kept indices.
func SelectInstances(n, stride int) []int {
	if stride < 1 {
		stride = 1
	}
	var out []int
	for i := 0; i < n; i += stride {
		out = append(out, i)
	}
	return out
}
