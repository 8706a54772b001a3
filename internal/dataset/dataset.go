// Package dataset provides the faceted dataset abstraction at the center of
// the paper's argument: IoT feature sets are collected by distinct devices,
// so features arrive grouped into views (facets). A Dataset carries the
// feature matrix, labels, named features, and the view structure; synthetic
// generators produce the faceted workloads the paper's introduction
// motivates (multi-sensor biometric identification, environmental sensing).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/partition"
	"repro/internal/rough"
)

// View is a named facet: the indices of the features one device contributes.
type View struct {
	Name     string
	Features []int // 0-based column indices
}

// Dataset is a labeled faceted dataset. Labels are ±1 for binary tasks.
// Missing, when non-nil, marks unobserved cells.
type Dataset struct {
	X            [][]float64
	Y            []int
	FeatureNames []string
	Views        []View
	Missing      [][]bool
}

// N returns the number of instances.
func (d *Dataset) N() int { return len(d.X) }

// D returns the number of features.
func (d *Dataset) D() int {
	if len(d.X) == 0 {
		return len(d.FeatureNames)
	}
	return len(d.X[0])
}

// Validate checks structural consistency.
func (d *Dataset) Validate() error {
	n := len(d.X)
	if len(d.Y) != n {
		return fmt.Errorf("dataset: %d rows but %d labels", n, len(d.Y))
	}
	dd := d.D()
	for i, row := range d.X {
		if len(row) != dd {
			return fmt.Errorf("dataset: row %d has %d features, want %d", i, len(row), dd)
		}
	}
	if d.FeatureNames != nil && len(d.FeatureNames) != dd {
		return fmt.Errorf("dataset: %d feature names for %d features", len(d.FeatureNames), dd)
	}
	if d.Missing != nil {
		if len(d.Missing) != n {
			return fmt.Errorf("dataset: missing mask has %d rows, want %d", len(d.Missing), n)
		}
		for i, row := range d.Missing {
			if len(row) != dd {
				return fmt.Errorf("dataset: missing mask row %d has %d cells, want %d", i, len(row), dd)
			}
		}
	}
	seen := make([]bool, dd)
	for _, v := range d.Views {
		for _, f := range v.Features {
			if f < 0 || f >= dd {
				return fmt.Errorf("dataset: view %q references feature %d out of range", v.Name, f)
			}
			if seen[f] {
				return fmt.Errorf("dataset: feature %d appears in two views", f)
			}
			seen[f] = true
		}
	}
	return nil
}

// Subset returns the dataset restricted to the given row indices (views and
// names shared, rows copied by reference).
func (d *Dataset) Subset(rows []int) *Dataset {
	out := &Dataset{
		FeatureNames: d.FeatureNames,
		Views:        d.Views,
	}
	for _, r := range rows {
		out.X = append(out.X, d.X[r])
		out.Y = append(out.Y, d.Y[r])
		if d.Missing != nil {
			out.Missing = append(out.Missing, d.Missing[r])
		}
	}
	return out
}

// Matrix returns the dense row-major feature matrix (a copy — mutating it
// does not affect the dataset). It feeds the vectorized Gram path, which
// wants instances as contiguous matrix rows rather than row slices.
func (d *Dataset) Matrix() *linalg.Matrix {
	return linalg.FromRows(d.X)
}

// BlockMatrix returns the contiguous n×len(features) column block of the
// given 0-based feature indices. Materializing a block once per dataset —
// instead of re-slicing per instance pair — is what lets block kernels run
// as dense matrix operations (see kernel.BlockGramKernel); searches cache
// these blocks alongside the per-block Grams in kernel.BlockGramCache.
func (d *Dataset) BlockMatrix(features []int) *linalg.Matrix {
	return linalg.FromRowsCols[float64](d.X, features)
}

// ViewPartition returns the partition of the feature set {1..D} induced by
// the views (features are 1-based in the partition). Features not covered
// by any view each form a singleton block.
func (d *Dataset) ViewPartition() partition.Partition {
	dd := d.D()
	assign := make([]int, dd)
	for i := range assign {
		assign[i] = -1
	}
	for vi, v := range d.Views {
		for _, f := range v.Features {
			assign[f] = vi
		}
	}
	next := len(d.Views)
	for i, a := range assign {
		if a == -1 {
			assign[i] = next
			next++
		}
	}
	return partition.FromRGS(assign)
}

// Standardize scales each feature to zero mean and unit variance in place
// (observed cells only). Constant features are left centered.
func (d *Dataset) Standardize() {
	dd := d.D()
	for j := 0; j < dd; j++ {
		var sum, sumSq float64
		count := 0
		for i := range d.X {
			if d.IsMissing(i, j) {
				continue
			}
			sum += d.X[i][j]
			sumSq += d.X[i][j] * d.X[i][j]
			count++
		}
		if count == 0 {
			continue
		}
		mean := sum / float64(count)
		varr := sumSq/float64(count) - mean*mean
		sd := math.Sqrt(math.Max(varr, 0))
		for i := range d.X {
			if d.IsMissing(i, j) {
				continue
			}
			d.X[i][j] -= mean
			if sd > 1e-12 {
				d.X[i][j] /= sd
			}
		}
	}
}

// IsMissing reports whether cell (i, j) is unobserved.
func (d *Dataset) IsMissing(i, j int) bool {
	return d.Missing != nil && d.Missing[i][j]
}

// MissingFraction returns the fraction of unobserved cells.
func (d *Dataset) MissingFraction() float64 {
	if d.Missing == nil || d.N() == 0 {
		return 0
	}
	miss, total := 0, 0
	for i := range d.Missing {
		for j := range d.Missing[i] {
			total++
			if d.Missing[i][j] {
				miss++
			}
		}
	}
	return float64(miss) / float64(total)
}

// InjectMCAR marks each cell missing independently with probability p
// (missing completely at random), zeroing the value. It allocates the mask
// if needed.
func (d *Dataset) InjectMCAR(p float64, rng *rand.Rand) {
	if d.Missing == nil {
		d.Missing = make([][]bool, d.N())
		for i := range d.Missing {
			d.Missing[i] = make([]bool, d.D())
		}
	}
	for i := range d.X {
		for j := range d.X[i] {
			if rng.Float64() < p {
				d.Missing[i][j] = true
				d.X[i][j] = 0
			}
		}
	}
}

// BiometricConfig parameterizes the synthetic multi-sensor identification
// workload: four facets with distinct geometry so that per-facet kernels
// (and therefore the partition structure) matter.
type BiometricConfig struct {
	N            int     // instances
	FacePerDim   int     // features per signal facet (>= 2)
	Noise        float64 // observation noise sigma
	IrrelevantSD float64 // scale of the pure-noise facet (before standardization)
	// NoiseFeatures is the size of the pure-noise iris facet (default
	// FacePerDim). A large noise facet is what defeats the single global
	// kernel: after standardization its dimensionality — not its amplitude
	// — dominates global distances, washing out the nonlinear facets.
	NoiseFeatures int
}

// DefaultBiometricConfig returns the configuration used by the benchmark
// harness (E7/E8/E13).
func DefaultBiometricConfig() BiometricConfig {
	return BiometricConfig{N: 200, FacePerDim: 2, Noise: 0.8, IrrelevantSD: 1.0, NoiseFeatures: 12}
}

// SyntheticBiometric generates the faceted identification workload. The
// facets are:
//
//	face:        linearly separable, strong signal
//	fingerprint: radial structure (class inside/outside a shell) — needs an
//	             RBF kernel on exactly these features
//	eeg:         pairwise XOR interaction — needs the facet kept together
//	iris:        pure noise — mixing it into other facets' kernels hurts
//
// A learner that respects the facet partition (kernel per facet) separates
// the classes; single global kernels or wrong partitions degrade — the
// behaviour the paper's Section III predicts.
func SyntheticBiometric(cfg BiometricConfig, rng *rand.Rand) *Dataset {
	k := cfg.FacePerDim
	if k < 2 {
		k = 2
	}
	kn := cfg.NoiseFeatures
	if kn <= 0 {
		kn = k
	}
	d := &Dataset{}
	names := []string{}
	mkView := func(name string, start, size int) View {
		feats := make([]int, size)
		fn := make([]string, size)
		for i := 0; i < size; i++ {
			feats[i] = start + i
			fn[i] = fmt.Sprintf("%s_%d", name, i)
		}
		names = append(names, fn...)
		return View{Name: name, Features: feats}
	}
	d.Views = []View{
		mkView("face", 0, k),
		mkView("fingerprint", k, k),
		mkView("eeg", 2*k, k),
		mkView("iris", 3*k, kn),
	}
	d.FeatureNames = names

	for i := 0; i < cfg.N; i++ {
		y := 1
		if rng.Float64() < 0.5 {
			y = -1
		}
		row := make([]float64, 3*k+kn)
		// face: shifted Gaussian along all coordinates.
		for j := 0; j < k; j++ {
			row[j] = float64(y)*0.9 + rng.NormFloat64()*cfg.Noise
		}
		// fingerprint: radius encodes the class (inside r=1 vs shell at r=2).
		radius := 1.0
		if y < 0 {
			radius = 2.0
		}
		dir := make([]float64, k)
		norm := 0.0
		for j := range dir {
			dir[j] = rng.NormFloat64()
			norm += dir[j] * dir[j]
		}
		norm = math.Sqrt(norm)
		for j := 0; j < k; j++ {
			row[k+j] = radius*dir[j]/norm + rng.NormFloat64()*cfg.Noise*0.5
		}
		// eeg: XOR of the signs of the first two coordinates encodes y.
		a, b := rng.Float64() < 0.5, rng.Float64() < 0.5
		if (a != b) != (y > 0) { // ensure xor(a,b) == (y>0)
			b = !b
		}
		sgn := func(v bool) float64 {
			if v {
				return 1
			}
			return -1
		}
		row[2*k] = sgn(a) + rng.NormFloat64()*cfg.Noise
		row[2*k+1] = sgn(b) + rng.NormFloat64()*cfg.Noise
		for j := 2; j < k; j++ {
			row[2*k+j] = rng.NormFloat64() * cfg.Noise
		}
		// iris: unrelated noise.
		for j := 0; j < kn; j++ {
			row[3*k+j] = rng.NormFloat64() * cfg.IrrelevantSD
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	return d
}

// Discretize bins each feature into `bins` equal-width categories (observed
// cells; missing cells get the category "?") and returns a rough.Table whose
// final attribute is the class label. Attribute names reuse FeatureNames
// when present.
func (d *Dataset) Discretize(bins int) *rough.Table {
	if bins < 2 {
		bins = 2
	}
	dd := d.D()
	attrs := make([]string, dd+1)
	for j := 0; j < dd; j++ {
		if d.FeatureNames != nil {
			attrs[j] = d.FeatureNames[j]
		} else {
			attrs[j] = fmt.Sprintf("f%d", j)
		}
	}
	attrs[dd] = "class"
	lo := make([]float64, dd)
	hi := make([]float64, dd)
	for j := 0; j < dd; j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
		for i := range d.X {
			if d.IsMissing(i, j) {
				continue
			}
			if d.X[i][j] < lo[j] {
				lo[j] = d.X[i][j]
			}
			if d.X[i][j] > hi[j] {
				hi[j] = d.X[i][j]
			}
		}
	}
	rows := make([][]string, d.N())
	for i := range d.X {
		row := make([]string, dd+1)
		for j := 0; j < dd; j++ {
			if d.IsMissing(i, j) || math.IsInf(lo[j], 1) {
				row[j] = "?"
				continue
			}
			span := hi[j] - lo[j]
			b := 0
			if span > 1e-12 {
				b = int(float64(bins) * (d.X[i][j] - lo[j]) / span)
				if b >= bins {
					b = bins - 1
				}
			}
			row[j] = fmt.Sprintf("b%d", b)
		}
		row[dd] = fmt.Sprint(d.Y[i])
		rows[i] = row
	}
	return rough.MustNewTable(attrs, rows)
}

// SurfaceConfig parameterizes the object-surface workload: the paper's
// other motivating example of faceted data — "the surface of a physical
// object can be represented by its color and texture attributes, which
// correspond to two perceptually separate subsets of features".
type SurfaceConfig struct {
	N       int     // instances
	Noise   float64 // observation noise sigma (default 0.4)
	ColorD  int     // color features (>= 3; default 3, e.g. RGB means)
	TexureD int     // texture features (>= 4; default 6, band energies)
	// BackgroundD is the size of a class-free clutter facet (specular
	// highlights, illumination gradients — default 8). As in the biometric
	// workload, its dimensionality is what degrades the global kernel.
	BackgroundD int
}

// DefaultSurfaceConfig returns the configuration used by experiment E14.
func DefaultSurfaceConfig() SurfaceConfig {
	return SurfaceConfig{N: 200, Noise: 0.4, ColorD: 3, TexureD: 6, BackgroundD: 8}
}

// SyntheticObjectSurface generates the two-facet surface workload. The
// class (e.g. "defective coating" vs "sound coating") shows up as:
//
//   - color: a hue shift — a linear displacement along a fixed direction in
//     color space;
//   - texture: a roughness change — the energy is concentrated in low
//     frequency bands for one class and high bands for the other, with the
//     total energy (the dominant single-feature statistic) kept identical,
//     so texture is informative only when its bands are read jointly.
//
// A global kernel mixes hue, band structure, and noise into one distance;
// per-facet kernels keep the two perceptual subsets separate.
func SyntheticObjectSurface(cfg SurfaceConfig, rng *rand.Rand) *Dataset {
	if cfg.ColorD < 3 {
		cfg.ColorD = 3
	}
	if cfg.TexureD < 4 {
		cfg.TexureD = 4
	}
	if cfg.Noise <= 0 {
		cfg.Noise = 0.4
	}
	if cfg.BackgroundD < 0 {
		cfg.BackgroundD = 0
	}
	d := &Dataset{}
	names := make([]string, 0, cfg.ColorD+cfg.TexureD+cfg.BackgroundD)
	colorFeats := make([]int, cfg.ColorD)
	for i := range colorFeats {
		colorFeats[i] = i
		names = append(names, fmt.Sprintf("color_%d", i))
	}
	texFeats := make([]int, cfg.TexureD)
	for i := range texFeats {
		texFeats[i] = cfg.ColorD + i
		names = append(names, fmt.Sprintf("texture_%d", i))
	}
	d.Views = []View{
		{Name: "color", Features: colorFeats},
		{Name: "texture", Features: texFeats},
	}
	if cfg.BackgroundD > 0 {
		bgFeats := make([]int, cfg.BackgroundD)
		for i := range bgFeats {
			bgFeats[i] = cfg.ColorD + cfg.TexureD + i
			names = append(names, fmt.Sprintf("background_%d", i))
		}
		d.Views = append(d.Views, View{Name: "background", Features: bgFeats})
	}
	d.FeatureNames = names

	for i := 0; i < cfg.N; i++ {
		y := 1
		if rng.Float64() < 0.5 {
			y = -1
		}
		row := make([]float64, cfg.ColorD+cfg.TexureD+cfg.BackgroundD)
		// Color: base chromaticity plus a weak class hue shift on the first
		// two channels (opposite signs — a hue rotation, not brightness).
		base := rng.NormFloat64() * 0.5 // shared illumination
		row[0] = base + 0.35*float64(y) + rng.NormFloat64()*cfg.Noise
		row[1] = base - 0.35*float64(y) + rng.NormFloat64()*cfg.Noise
		for c := 2; c < cfg.ColorD; c++ {
			row[c] = base + rng.NormFloat64()*cfg.Noise
		}
		// Texture: the class tilts the band-energy profile (rough surfaces
		// shift energy toward high frequencies), while a large per-row
		// offset (overall contrast) dominates each band's marginal
		// distribution — the profile must be read jointly across bands to
		// recover the tilt.
		T := cfg.TexureD
		offset := rng.NormFloat64() * 1.5 // per-row contrast, class-free
		slope := 0.4 * float64(y)
		for b := 0; b < T; b++ {
			pos := float64(b)/float64(T-1) - 0.5 // centered band position
			row[cfg.ColorD+b] = offset + slope*pos + rng.NormFloat64()*cfg.Noise*0.5
		}
		// Background clutter: class-free structure.
		for b := 0; b < cfg.BackgroundD; b++ {
			row[cfg.ColorD+cfg.TexureD+b] = rng.NormFloat64()
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
	}
	return d
}
