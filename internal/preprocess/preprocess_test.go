package preprocess

import (
	"math"
	"testing"

	"repro/internal/sensors"
	"repro/internal/stats"
)

func TestMergeStreamsPaperExample(t *testing.T) {
	// Two perfectly interleaved streams: merging the time-stamps yields
	// records where each stamp observes exactly one quantity — the paper's
	// "multi-dimensional record typically plagued by missing feature-values".
	a := sensors.Stream{Quantity: "temperature", Readings: []sensors.Reading{
		{Time: 0, Value: 20}, {Time: 1, Value: 21}, {Time: 2, Value: 22},
	}}
	b := sensors.Stream{Quantity: "humidity", Readings: []sensors.Reading{
		{Time: 0.5, Value: 60}, {Time: 1.5, Value: 61},
	}}
	m, err := MergeStreams([]sensors.Stream{a, b}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Times) != 5 {
		t.Fatalf("merged stamps = %d, want 5", len(m.Times))
	}
	if got := m.MissingFraction(); got != 0.5 {
		t.Errorf("missing fraction = %v, want 0.5", got)
	}
	// First record observes temperature only.
	if m.Mask[0][0] || !m.Mask[0][1] {
		t.Errorf("record 0 mask = %v, want [false true]", m.Mask[0])
	}
	if m.X[0][0] != 20 {
		t.Errorf("record 0 temperature = %v, want 20", m.X[0][0])
	}
}

func TestMergeStreamsToleranceCollapses(t *testing.T) {
	a := sensors.Stream{Quantity: "x", Readings: []sensors.Reading{{Time: 0, Value: 1}}}
	b := sensors.Stream{Quantity: "y", Readings: []sensors.Reading{{Time: 0.05, Value: 2}}}
	m, err := MergeStreams([]sensors.Stream{a, b}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Times) != 1 {
		t.Fatalf("stamps = %d, want 1 (collapsed within tolerance)", len(m.Times))
	}
	if m.MissingFraction() != 0 {
		t.Errorf("missing = %v, want 0", m.MissingFraction())
	}
}

func TestMergeStreamsValidation(t *testing.T) {
	if _, err := MergeStreams(nil, 0.1); err == nil {
		t.Error("no streams accepted")
	}
	if _, err := MergeStreams([]sensors.Stream{{Quantity: "x"}}, 0.1); err == nil {
		t.Error("all-empty streams accepted")
	}
	s := sensors.Stream{Quantity: "x", Readings: []sensors.Reading{{Time: 0, Value: 1}}}
	if _, err := MergeStreams([]sensors.Stream{s}, -1); err == nil {
		t.Error("negative tolerance accepted")
	}
}

func TestMergeRealFleetDesyncDrivesMissingness(t *testing.T) {
	// E12 shape: more desynchronization -> more missing cells after merge.
	missAt := func(desync float64) float64 {
		fleet := sensors.EnvironmentalFleet(desync)
		streams, err := sensors.SampleFleet(fleet, 200, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		m, err := MergeStreams(streams, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return m.MissingFraction()
	}
	aligned := missAt(0)
	skewed := missAt(1)
	if skewed <= aligned {
		t.Errorf("desync missing %v should exceed aligned %v", skewed, aligned)
	}
	if aligned > 0.1 {
		t.Errorf("aligned fleet missing = %v, want near 0", aligned)
	}
}

func TestNormalize(t *testing.T) {
	x := [][]float64{{0, 5}, {10, 5}, {5, 5}}
	Normalize(x, nil)
	if x[0][0] != 0 || x[1][0] != 1 || x[2][0] != 0.5 {
		t.Errorf("normalized col 0 = %v %v %v", x[0][0], x[1][0], x[2][0])
	}
	if x[0][1] != 0 { // constant column maps to 0
		t.Errorf("constant column = %v, want 0", x[0][1])
	}
}

func TestNormalizeRespectsMask(t *testing.T) {
	x := [][]float64{{0}, {100}, {10}}
	mask := [][]bool{{false}, {true}, {false}}
	Normalize(x, mask)
	if x[1][0] != 100 {
		t.Error("masked cell should be untouched")
	}
	if x[2][0] != 1 { // observed max is 10
		t.Errorf("normalized = %v, want 1", x[2][0])
	}
}

func TestIdentifyAndCleanNoise(t *testing.T) {
	x := [][]float64{{1}, {2}, {1.5}, {1.2}, {1.8}, {50}}
	mask := [][]bool{{false}, {false}, {false}, {false}, {false}, {false}}
	flagged := IdentifyNoise(x, mask, 2)
	if len(flagged) != 1 || flagged[0] != [2]int{5, 0} {
		t.Fatalf("flagged = %v, want [[5 0]]", flagged)
	}
	CleanNoise(x, mask, flagged)
	if !mask[5][0] || x[5][0] != 0 {
		t.Error("cleaned cell should be missing and zeroed")
	}
	if IdentifyNoise(nil, nil, 2) != nil {
		t.Error("empty input should flag nothing")
	}
	if IdentifyNoise(x, mask, 0) != nil {
		t.Error("nonpositive threshold should flag nothing")
	}
}

func TestSelectInstances(t *testing.T) {
	got := SelectInstances(10, 3)
	want := []int{0, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
	if got := SelectInstances(5, 0); len(got) != 5 {
		t.Errorf("stride 0 should clamp to 1, got %v", got)
	}
}

func TestNearestIndex(t *testing.T) {
	sorted := []float64{0, 1, 2, 3}
	tests := []struct {
		t    float64
		want int
	}{{-5, 0}, {0.4, 0}, {0.6, 1}, {2.5, 2}, {99, 3}}
	for _, tt := range tests {
		if got := nearestIndex(sorted, tt.t); got != tt.want {
			t.Errorf("nearestIndex(%v) = %d, want %d", tt.t, got, tt.want)
		}
	}
}

func TestMergePreservesValues(t *testing.T) {
	fleet := sensors.EnvironmentalFleet(0.5)
	streams, err := sensors.SampleFleet(fleet, 50, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	m, err := MergeStreams(streams, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// Every reading must appear somewhere in the records.
	for j, s := range streams {
		for _, r := range s.Readings {
			found := false
			for i := range m.X {
				if !m.Mask[i][j] && m.X[i][j] == r.Value && math.Abs(m.Times[i]-r.Time) <= m.Tolerance {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("reading %v of stream %d lost in merge", r, j)
			}
		}
	}
}
