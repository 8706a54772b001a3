// Package multiview implements the two multi-view learning families the
// paper's introduction lists alongside multiple kernel learning:
//
//   - co-training: coordinate the training of per-view models, letting each
//     view label the unlabeled examples it is most confident about for the
//     other views;
//   - subspace learning: identify a latent subspace shared by the views
//     (canonical-correlation style, via alternating least squares on the
//     cross-view covariance) and learn in that subspace.
//
// Both consume the same faceted datasets as package mkl, enabling the E13
// family comparison.
package multiview

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
)

// viewColumns extracts the columns of one view as a row-major matrix.
func viewColumns(d *dataset.Dataset, v dataset.View) [][]float64 {
	out := make([][]float64, d.N())
	for i := range out {
		row := make([]float64, len(v.Features))
		for j, f := range v.Features {
			row[j] = d.X[i][f]
		}
		out[i] = row
	}
	return out
}

// CoTraining trains one kernel machine per view on the labeled pool and
// iteratively promotes the most confident unlabeled predictions of each
// view into the other views' training pools.
type CoTraining struct {
	Trainer    kernelmachine.Trainer
	Kernel     kernel.Kernel // per-view kernel; nil = RBF(gamma=1/|view|)
	Rounds     int           // promotion rounds (default 5)
	PerRound   int           // promotions per view per round (default 2)
	Confidence float64       // minimum |score| to promote (default 0.1)
}

func (c CoTraining) withDefaults() CoTraining {
	if c.Trainer == nil {
		c.Trainer = kernelmachine.Ridge{Lambda: 1e-2}
	}
	if c.Rounds <= 0 {
		c.Rounds = 5
	}
	if c.PerRound <= 0 {
		c.PerRound = 2
	}
	if c.Confidence <= 0 {
		c.Confidence = 0.1
	}
	return c
}

// CoTrainedModel predicts by averaging per-view decision scores.
type CoTrainedModel struct {
	views    []dataset.View
	kernels  []kernel.Kernel
	models   []*kernelmachine.DualModel
	trainX   [][][]float64 // per view: training rows (view columns)
	trainLab [][]int
}

// Fit runs co-training on d using the labeled index set; the remaining rows
// act as the unlabeled pool.
func (c CoTraining) Fit(d *dataset.Dataset, labeled []int) (*CoTrainedModel, error) {
	c = c.withDefaults()
	if len(d.Views) < 2 {
		return nil, fmt.Errorf("multiview: co-training needs >= 2 views, got %d", len(d.Views))
	}
	if len(labeled) == 0 {
		return nil, fmt.Errorf("multiview: empty labeled set")
	}
	isLabeled := make([]bool, d.N())
	for _, i := range labeled {
		if i < 0 || i >= d.N() {
			return nil, fmt.Errorf("multiview: labeled index %d out of range", i)
		}
		isLabeled[i] = true
	}
	nv := len(d.Views)
	viewX := make([][][]float64, nv)
	kernels := make([]kernel.Kernel, nv)
	for v := range d.Views {
		viewX[v] = viewColumns(d, d.Views[v])
		if c.Kernel != nil {
			kernels[v] = c.Kernel
		} else {
			kernels[v] = kernel.RBF{Gamma: 1 / float64(len(d.Views[v].Features))}
		}
	}
	// Per-view labeled pools start equal; promoted pseudo-labels diverge.
	pools := make([][]int, nv)  // row indices
	labels := make([][]int, nv) // labels aligned with pools
	for v := 0; v < nv; v++ {
		for _, i := range labeled {
			pools[v] = append(pools[v], i)
			labels[v] = append(labels[v], d.Y[i])
		}
	}
	unlabeled := map[int]bool{}
	for i := 0; i < d.N(); i++ {
		if !isLabeled[i] {
			unlabeled[i] = true
		}
	}

	train := func(v int) (*kernelmachine.DualModel, error) {
		x := make([][]float64, len(pools[v]))
		for i, r := range pools[v] {
			x[i] = viewX[v][r]
		}
		gram := kernel.Gram(kernels[v], x)
		return c.Trainer.Train(gram, labels[v])
	}

	for round := 0; round < c.Rounds && len(unlabeled) > 0; round++ {
		models := make([]*kernelmachine.DualModel, nv)
		for v := 0; v < nv; v++ {
			m, err := train(v)
			if err != nil {
				return nil, fmt.Errorf("multiview: round %d view %d: %w", round, v, err)
			}
			models[v] = m
		}
		type cand struct {
			row   int
			label int
			conf  float64
		}
		for v := 0; v < nv; v++ {
			// View v nominates its most confident unlabeled rows.
			var ids []int
			for i := range unlabeled {
				ids = append(ids, i)
			}
			sort.Ints(ids)
			if len(ids) == 0 {
				break
			}
			trainRows := make([][]float64, len(pools[v]))
			for i, r := range pools[v] {
				trainRows[i] = viewX[v][r]
			}
			testRows := make([][]float64, len(ids))
			for i, r := range ids {
				testRows[i] = viewX[v][r]
			}
			scores := models[v].Scores(kernel.CrossGram(kernels[v], testRows, trainRows))
			var cands []cand
			for i, s := range scores {
				if math.Abs(s) >= c.Confidence {
					lab := 1
					if s < 0 {
						lab = -1
					}
					cands = append(cands, cand{row: ids[i], label: lab, conf: math.Abs(s)})
				}
			}
			sort.Slice(cands, func(a, b int) bool { return cands[a].conf > cands[b].conf })
			if len(cands) > c.PerRound {
				cands = cands[:c.PerRound]
			}
			// Promote into the OTHER views' pools (the defining move of
			// co-training) and retire from the unlabeled pool.
			for _, cd := range cands {
				for w := 0; w < nv; w++ {
					if w == v {
						continue
					}
					pools[w] = append(pools[w], cd.row)
					labels[w] = append(labels[w], cd.label)
				}
				delete(unlabeled, cd.row)
			}
		}
	}

	out := &CoTrainedModel{views: d.Views, kernels: kernels}
	for v := 0; v < nv; v++ {
		m, err := train(v)
		if err != nil {
			return nil, err
		}
		out.models = append(out.models, m)
		x := make([][]float64, len(pools[v]))
		for i, r := range pools[v] {
			x[i] = viewX[v][r]
		}
		out.trainX = append(out.trainX, x)
		out.trainLab = append(out.trainLab, labels[v])
	}
	return out, nil
}

// Predict returns ±1 labels for the rows of test by averaging view scores.
func (m *CoTrainedModel) Predict(test *dataset.Dataset) []int {
	n := test.N()
	agg := make([]float64, n)
	for v := range m.views {
		testRows := viewColumns(test, m.views[v])
		scores := m.models[v].Scores(kernel.CrossGram(m.kernels[v], testRows, m.trainX[v]))
		for i, s := range scores {
			agg[i] += s
		}
	}
	return kernelmachine.Classify(agg)
}

// Subspace learns a shared latent subspace across two views by alternating
// least squares on the cross-view covariance (a CCA-style first-k
// directions extraction), then trains a kernel machine on the latent
// coordinates. This is the paper's third multi-view family: "subspace
// learning algorithms try to identify a latent subspace shared by multiple
// views by assuming that the input views are generated from it".
type Subspace struct {
	Dim     int // latent dimensions (default 2)
	Trainer kernelmachine.Trainer
	Reg     float64 // covariance ridge (default 1e-3)
}

func (s Subspace) withDefaults() Subspace {
	if s.Dim <= 0 {
		s.Dim = 2
	}
	if s.Trainer == nil {
		s.Trainer = kernelmachine.Ridge{Lambda: 1e-2}
	}
	if s.Reg <= 0 {
		s.Reg = 1e-3
	}
	return s
}

// SubspaceModel holds the learned projections and downstream classifier.
type SubspaceModel struct {
	viewA, viewB dataset.View
	wa, wb       []linalg.Vector // per latent dim
	model        *kernelmachine.DualModel
	trainZ       [][]float64
	k            kernel.Kernel
}

// Fit learns the shared subspace between the first two views of d and a
// classifier on the latent coordinates.
func (s Subspace) Fit(d *dataset.Dataset) (*SubspaceModel, error) {
	s = s.withDefaults()
	if len(d.Views) < 2 {
		return nil, fmt.Errorf("multiview: subspace needs >= 2 views, got %d", len(d.Views))
	}
	va, vb := d.Views[0], d.Views[1]
	xa := viewColumns(d, va)
	xb := viewColumns(d, vb)
	n := d.N()
	if n < 2 {
		return nil, fmt.Errorf("multiview: need >= 2 rows")
	}
	da, db := len(va.Features), len(vb.Features)

	// Cross-covariance C = Xaᵀ Xb / n (views assumed standardized).
	cab := linalg.NewMatrix(da, db)
	for i := 0; i < n; i++ {
		for p := 0; p < da; p++ {
			for q := 0; q < db; q++ {
				cab.Data[p*db+q] += xa[i][p] * xb[i][q]
			}
		}
	}
	for i := range cab.Data {
		cab.Data[i] /= float64(n)
	}

	model := &SubspaceModel{viewA: va, viewB: vb}
	work := cab.Clone()
	dim := s.Dim
	if m := minInt(da, db); dim > m {
		dim = m
	}
	for t := 0; t < dim; t++ {
		// Power iteration on workᵀwork for the dominant right vector, then
		// the matching left vector: the top singular pair of the
		// cross-covariance — the direction pair with maximal cross-view
		// covariance.
		ata := work.T().Mul(work)
		ata.AddScaledDiag(s.Reg)
		_, vb1, err := linalg.PowerIteration(ata, 500, 1e-12)
		if err != nil {
			return nil, err
		}
		ua := work.MulVec(vb1)
		nu := ua.Norm()
		if nu < 1e-12 {
			break
		}
		ua.Scale(1 / nu)
		model.wa = append(model.wa, ua)
		model.wb = append(model.wb, vb1)
		// Deflate: work -= sigma ua vbᵀ with sigma = uaᵀ work vb.
		sigma := ua.Dot(work.MulVec(vb1))
		for p := 0; p < da; p++ {
			for q := 0; q < db; q++ {
				work.Data[p*db+q] -= sigma * ua[p] * vb1[q]
			}
		}
	}
	if len(model.wa) == 0 {
		return nil, fmt.Errorf("multiview: degenerate cross-covariance (no shared direction)")
	}

	z := model.project(d)
	model.k = kernel.RBF{Gamma: 1 / float64(len(model.wa))}
	gram := kernel.Gram(model.k, z)
	m, err := s.Trainer.Train(gram, d.Y)
	if err != nil {
		return nil, err
	}
	model.model = m
	model.trainZ = z
	return model, nil
}

// project maps rows into the latent space: z_t = <wa_t, xa> + <wb_t, xb>.
func (m *SubspaceModel) project(d *dataset.Dataset) [][]float64 {
	xa := viewColumns(d, m.viewA)
	xb := viewColumns(d, m.viewB)
	z := make([][]float64, d.N())
	for i := range z {
		row := make([]float64, len(m.wa))
		for t := range m.wa {
			row[t] = m.wa[t].Dot(xa[i]) + m.wb[t].Dot(xb[i])
		}
		z[i] = row
	}
	return z
}

// Predict returns ±1 labels for the rows of test.
func (m *SubspaceModel) Predict(test *dataset.Dataset) []int {
	z := m.project(test)
	return kernelmachine.Classify(m.model.Scores(kernel.CrossGram(m.k, z, m.trainZ)))
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
