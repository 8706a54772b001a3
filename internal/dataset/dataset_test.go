package dataset

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestSyntheticBiometricShape(t *testing.T) {
	cfg := DefaultBiometricConfig()
	d := SyntheticBiometric(cfg, stats.NewRNG(1))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.N() != cfg.N {
		t.Errorf("N = %d, want %d", d.N(), cfg.N)
	}
	if d.D() != 3*cfg.FacePerDim+cfg.NoiseFeatures {
		t.Errorf("D = %d, want %d", d.D(), 3*cfg.FacePerDim+cfg.NoiseFeatures)
	}
	if len(d.Views) != 4 {
		t.Errorf("views = %d, want 4", len(d.Views))
	}
	pos, neg := 0, 0
	for _, y := range d.Y {
		switch y {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatalf("label %d not ±1", y)
		}
	}
	if pos == 0 || neg == 0 {
		t.Error("degenerate class balance")
	}
}

func TestSyntheticBiometricDeterminism(t *testing.T) {
	a := SyntheticBiometric(DefaultBiometricConfig(), stats.NewRNG(7))
	b := SyntheticBiometric(DefaultBiometricConfig(), stats.NewRNG(7))
	for i := range a.X {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels differ across same-seed runs")
		}
		for j := range a.X[i] {
			if a.X[i][j] != b.X[i][j] {
				t.Fatal("features differ across same-seed runs")
			}
		}
	}
}

func TestViewPartition(t *testing.T) {
	d := SyntheticBiometric(BiometricConfig{N: 10, FacePerDim: 2, Noise: 0.1, IrrelevantSD: 1}, stats.NewRNG(1))
	p := d.ViewPartition()
	if p.N() != 8 || p.NumBlocks() != 4 {
		t.Fatalf("view partition %s: n=%d blocks=%d", p, p.N(), p.NumBlocks())
	}
	// face = features 1,2; fingerprint = 3,4; eeg = 5,6; iris = 7,8.
	if !p.SameBlock(1, 2) || p.SameBlock(2, 3) || !p.SameBlock(7, 8) {
		t.Errorf("view partition misgrouped: %s", p)
	}
}

func TestViewPartitionUncoveredSingletons(t *testing.T) {
	d := &Dataset{
		X:     [][]float64{{1, 2, 3}},
		Y:     []int{1},
		Views: []View{{Name: "v", Features: []int{0}}},
	}
	p := d.ViewPartition()
	if p.NumBlocks() != 3 {
		t.Errorf("blocks = %d, want 3 (uncovered features become singletons)", p.NumBlocks())
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	good := &Dataset{X: [][]float64{{1, 2}}, Y: []int{1}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	bad := &Dataset{X: [][]float64{{1, 2}}, Y: []int{1, -1}}
	if err := bad.Validate(); err == nil {
		t.Error("label count mismatch accepted")
	}
	ragged := &Dataset{X: [][]float64{{1, 2}, {1}}, Y: []int{1, -1}}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged rows accepted")
	}
	dupView := &Dataset{
		X: [][]float64{{1, 2}}, Y: []int{1},
		Views: []View{{"a", []int{0}}, {"b", []int{0}}},
	}
	if err := dupView.Validate(); err == nil {
		t.Error("overlapping views accepted")
	}
}

func TestStandardize(t *testing.T) {
	d := &Dataset{X: [][]float64{{1, 10}, {3, 10}, {5, 10}}, Y: []int{1, 1, -1}}
	d.Standardize()
	col0 := []float64{d.X[0][0], d.X[1][0], d.X[2][0]}
	if m := stats.Mean(col0); math.Abs(m) > 1e-12 {
		t.Errorf("mean after standardize = %v", m)
	}
	if sd := stats.StdDev(col0); math.Abs(sd-1) > 1e-12 {
		t.Errorf("sd after standardize = %v", sd)
	}
	// Constant column centered to zero, not divided.
	if d.X[0][1] != 0 {
		t.Errorf("constant column = %v, want 0", d.X[0][1])
	}
}

func TestInjectMCARAndMissingFraction(t *testing.T) {
	d := SyntheticBiometric(BiometricConfig{N: 100, FacePerDim: 3, Noise: 0.3, IrrelevantSD: 1}, stats.NewRNG(2))
	if d.MissingFraction() != 0 {
		t.Error("fresh dataset should have no missing cells")
	}
	d.InjectMCAR(0.3, stats.NewRNG(3))
	frac := d.MissingFraction()
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("missing fraction = %v, want ≈ 0.3", frac)
	}
	for i := range d.X {
		for j := range d.X[i] {
			if d.Missing[i][j] && d.X[i][j] != 0 {
				t.Fatal("missing cell should be zeroed")
			}
		}
	}
}

func TestSubset(t *testing.T) {
	d := SyntheticBiometric(BiometricConfig{N: 20, FacePerDim: 2, Noise: 0.3, IrrelevantSD: 1}, stats.NewRNG(4))
	s := d.Subset([]int{3, 5, 7})
	if s.N() != 3 {
		t.Fatalf("subset N = %d", s.N())
	}
	if s.Y[1] != d.Y[5] {
		t.Error("subset labels misaligned")
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestDiscretize(t *testing.T) {
	d := SyntheticBiometric(BiometricConfig{N: 50, FacePerDim: 2, Noise: 0.3, IrrelevantSD: 1}, stats.NewRNG(5))
	tbl := d.Discretize(3)
	if tbl.N() != 50 {
		t.Fatalf("table rows = %d", tbl.N())
	}
	if len(tbl.Attrs) != d.D()+1 {
		t.Fatalf("attrs = %d, want %d", len(tbl.Attrs), d.D()+1)
	}
	if tbl.Attrs[len(tbl.Attrs)-1] != "class" {
		t.Error("last attribute should be class")
	}
	// All cells in b0..b2 and classes in {-1, 1}.
	for _, row := range tbl.Rows {
		for j := 0; j < d.D(); j++ {
			if row[j] != "b0" && row[j] != "b1" && row[j] != "b2" {
				t.Fatalf("unexpected bin %q", row[j])
			}
		}
		if cls := row[d.D()]; cls != "1" && cls != "-1" {
			t.Fatalf("unexpected class %q", cls)
		}
	}
}

func TestDiscretizeMissingCells(t *testing.T) {
	d := &Dataset{
		X:       [][]float64{{1, 2}, {3, 4}},
		Y:       []int{1, -1},
		Missing: [][]bool{{true, false}, {false, false}},
	}
	tbl := d.Discretize(2)
	if tbl.Rows[0][0] != "?" {
		t.Errorf("missing cell = %q, want ?", tbl.Rows[0][0])
	}
}

func TestSyntheticObjectSurfaceShape(t *testing.T) {
	cfg := DefaultSurfaceConfig()
	d := SyntheticObjectSurface(cfg, stats.NewRNG(1))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.N() != cfg.N || d.D() != cfg.ColorD+cfg.TexureD+cfg.BackgroundD {
		t.Errorf("shape %dx%d", d.N(), d.D())
	}
	if len(d.Views) != 3 || d.Views[0].Name != "color" || d.Views[1].Name != "texture" || d.Views[2].Name != "background" {
		t.Errorf("views = %v", d.Views)
	}
	pos := 0
	for _, y := range d.Y {
		if y == 1 {
			pos++
		}
	}
	if pos == 0 || pos == d.N() {
		t.Error("degenerate class balance")
	}
}

func TestSurfaceTextureEnergyCarriesNoClassSignal(t *testing.T) {
	// The class tilts the band profile but leaves the total energy
	// distribution unchanged (band positions are centered, the per-row
	// offset dominates): the naive sum statistic cannot separate the
	// classes beyond sampling noise.
	cfg := DefaultSurfaceConfig()
	cfg.N = 4000
	d := SyntheticObjectSurface(cfg, stats.NewRNG(2))
	var sumPos, sumNeg []float64
	for i := range d.X {
		total := 0.0
		for _, f := range d.Views[1].Features {
			total += d.X[i][f]
		}
		if d.Y[i] > 0 {
			sumPos = append(sumPos, total)
		} else {
			sumNeg = append(sumNeg, total)
		}
	}
	diff := math.Abs(stats.Mean(sumPos) - stats.Mean(sumNeg))
	spread := stats.StdDev(append(append([]float64{}, sumPos...), sumNeg...))
	if diff > spread/4 {
		t.Errorf("texture totals differ by class: diff %v vs spread %v", diff, spread)
	}
	// Meanwhile the tilt statistic (last band minus first band) must
	// separate the classes strongly.
	tilt := func(i int) float64 {
		f := d.Views[1].Features
		return d.X[i][f[len(f)-1]] - d.X[i][f[0]]
	}
	var tp, tn []float64
	for i := range d.X {
		if d.Y[i] > 0 {
			tp = append(tp, tilt(i))
		} else {
			tn = append(tn, tilt(i))
		}
	}
	if stats.Mean(tp) <= stats.Mean(tn) {
		t.Error("positive class should tilt the band profile upward")
	}
}

func TestSurfaceConfigClamps(t *testing.T) {
	d := SyntheticObjectSurface(SurfaceConfig{N: 10, ColorD: 1, TexureD: 1, BackgroundD: -2}, stats.NewRNG(3))
	if d.D() != 3+4 {
		t.Errorf("clamped dims = %d, want 7 (negative background clamps to 0)", d.D())
	}
	if len(d.Views) != 2 {
		t.Errorf("views without background = %d, want 2", len(d.Views))
	}
}

func TestMatrix(t *testing.T) {
	d := &Dataset{
		X: [][]float64{{1, 2, 3}, {4, 5, 6}},
		Y: []int{1, -1},
	}
	m := d.Matrix()
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("matrix shape %dx%d", m.Rows, m.Cols)
	}
	for i := range d.X {
		for j := range d.X[i] {
			if m.At(i, j) != d.X[i][j] {
				t.Fatalf("matrix (%d,%d) = %v, want %v", i, j, m.At(i, j), d.X[i][j])
			}
		}
	}
	// Matrix is a copy: mutating it must not leak into the dataset.
	m.Set(0, 0, 99)
	if d.X[0][0] != 1 {
		t.Error("Matrix shares backing storage with the dataset")
	}
}
