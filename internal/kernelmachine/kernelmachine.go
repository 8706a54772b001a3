// Package kernelmachine implements the kernel learners that consume
// multiple-kernel configurations: a binary SVM trained by SMO on a
// precomputed Gram matrix, kernel ridge regression/classification, and a
// kernel perceptron. Working on precomputed Grams is the natural interface
// for the lattice search, which evaluates many kernel configurations on one
// training set. Every learner returns the same trained form, a DualModel
// (dual coefficients and a bias), which scores, persists and reloads the
// same way whichever learner fitted it.
package kernelmachine

import (
	"errors"
	"fmt"

	"repro/internal/linalg"
)

// Trainer fits a DualModel from a training Gram matrix and ±1 labels.
// Train only reads gram: the deployment fit may hand it a Gram it keeps
// and trains on again.
type Trainer interface {
	Train(gram *linalg.Matrix, y []int) (*DualModel, error)
	String() string
}

// Classify converts scores to ±1 labels (score 0 goes to +1).
func Classify(scores []float64) []int {
	return ClassifyInto(nil, scores)
}

// ClassifyInto converts scores to ±1 labels into dst (reused when its
// capacity suffices, reallocated otherwise) and returns it — the
// allocation-free Classify for hot evaluation loops.
func ClassifyInto(dst []int, scores []float64) []int {
	if cap(dst) < len(scores) {
		dst = make([]int, len(scores))
	}
	dst = dst[:len(scores)]
	for i, s := range scores {
		if s >= 0 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
	}
	return dst
}

func validate(gram *linalg.Matrix, y []int) error {
	if gram.Rows != gram.Cols {
		return fmt.Errorf("kernelmachine: gram is %dx%d, want square", gram.Rows, gram.Cols)
	}
	if gram.Rows != len(y) {
		return fmt.Errorf("kernelmachine: %d labels for %d training points", len(y), gram.Rows)
	}
	if len(y) == 0 {
		return errors.New("kernelmachine: empty training set")
	}
	for _, v := range y {
		if v != 1 && v != -1 {
			return fmt.Errorf("kernelmachine: label %d not in {-1,+1}", v)
		}
	}
	return nil
}

// NewDualModel rebuilds a prediction-ready model from extracted dual
// coefficients and bias — the load-time inverse of Coefficients and Bias.
// The returned model scores through the exact code path the trainers'
// models use, so a persisted model's scores are bit-identical to the
// fitted one's. The coefficient slice is copied.
func NewDualModel(coeff []float64, bias float64) *DualModel {
	return &DualModel{coeff: append([]float64(nil), coeff...), b: bias}
}

// DualModel is the one trained form of every learner in this package:
// score(x) = Σ coeff_i K(x_i, x) + b over the cross-Gram of x against the
// training rows (rows = test points, cols = training points). Model
// persistence (internal/model) lifts it out of the process through
// Coefficients and Bias, and NewDualModel rebuilds it.
type DualModel struct {
	coeff []float64 // alpha_i * y_i for SVM; alpha_i for ridge/perceptron
	b     float64
}

// Scores returns the decision scores for the rows of cross in a new slice.
func (m *DualModel) Scores(cross *linalg.Matrix) []float64 {
	return m.ScoresInto(nil, cross)
}

// ScoresInto writes the decision scores for the rows of cross into dst
// (reused when its capacity suffices, reallocated otherwise) and returns
// it. Scoring is one matrix-vector product over the row-major cross-Gram
// (linalg.MulVecInto) when the bias is zero and the shapes agree exactly;
// otherwise each row accumulates from b over the first len(coeff) columns
// in the same left-to-right order (some callers, e.g. co-training, score
// against a cross-Gram with trailing extra columns). Both routes are
// bit-identical to the historical per-element loop.
//
//iotml:hotpath
func (m *DualModel) ScoresInto(dst []float64, cross *linalg.Matrix) []float64 {
	if cross.Cols < len(m.coeff) {
		// Historically this fell through to an opaque slice-bounds panic;
		// fail with the actual shape mismatch instead. (More columns than
		// coefficients stays legal — co-training scores against cross-Grams
		// with trailing extra columns.)
		//iotml:allow hotpathalloc -- cold shape-mismatch panic, never taken in steady state
		panic(fmt.Sprintf("kernelmachine: cross-Gram has %d columns for %d dual coefficients", cross.Cols, len(m.coeff)))
	}
	if m.b == 0 && cross.Cols == len(m.coeff) {
		return linalg.MulVecInto(dst, cross, m.coeff)
	}
	if cap(dst) < cross.Rows {
		dst = make([]float64, cross.Rows)
	}
	dst = dst[:cross.Rows]
	for i := 0; i < cross.Rows; i++ {
		s := m.b
		row := cross.Data[i*cross.Cols : i*cross.Cols+len(m.coeff)]
		for j, c := range m.coeff {
			s += c * row[j]
		}
		dst[i] = s
	}
	return dst
}

// Coefficients returns a copy of the dual coefficients, one per training
// row (alpha_i y_i for SVM, alpha_i for ridge/perceptron).
func (m *DualModel) Coefficients() []float64 { return append([]float64(nil), m.coeff...) }

// Bias returns the intercept.
func (m *DualModel) Bias() float64 { return m.b }

// SVM trains a soft-margin binary SVM with simplified SMO (Platt's
// heuristics reduced to random second-choice, as in the classic CS229
// simplification — adequate at the data scales of the lattice search).
type SVM struct {
	C         float64 // soft-margin penalty (default 1)
	Tol       float64 // KKT tolerance (default 1e-3)
	MaxPasses int     // passes with no alpha change before stopping (default 5)
	MaxIter   int     // hard iteration cap (default 200 sweeps)
	Seed      int64   // RNG seed for second-choice heuristic
}

func (s SVM) String() string { return fmt.Sprintf("svm(C=%g)", s.c()) }

func (s SVM) c() float64 {
	if s.C <= 0 {
		return 1
	}
	return s.C
}

// Train implements Trainer. It runs the same error-cache SMO as
// TrainScratch on a private Scratch the returned model takes ownership of,
// so the two entry points are bit-identical by construction; callers on hot
// paths pass their own Scratch to TrainScratch to skip the per-call buffer
// allocations.
func (s SVM) Train(gram *linalg.Matrix, y []int) (*DualModel, error) {
	return s.TrainScratch(gram, y, &Scratch{})
}

// Ridge trains kernel ridge classification: solve (K + λI) α = y and score
// by Σ α_i K(x_i, x). Deterministic and fast — the default learner for
// lattice search, where thousands of configurations are evaluated.
type Ridge struct {
	Lambda float64 // regularization (default 1e-2)
}

func (r Ridge) String() string { return fmt.Sprintf("ridge(λ=%g)", r.lambda()) }

func (r Ridge) lambda() float64 {
	if r.Lambda <= 0 {
		return 1e-2
	}
	return r.Lambda
}

// Train implements Trainer: TrainScratch on a private Scratch the
// returned model takes ownership of, as SVM.Train does, except for the
// factor buffer, which goes back to linalg's recycler.
func (r Ridge) Train(gram *linalg.Matrix, y []int) (*DualModel, error) {
	s := &Scratch{}
	m, err := r.TrainScratch(gram, y, s)
	s.Release()
	return m, err
}

// Perceptron trains a kernel perceptron for a fixed number of epochs.
type Perceptron struct {
	Epochs int // default 20
}

func (p Perceptron) String() string { return fmt.Sprintf("perceptron(e=%d)", p.epochs()) }

func (p Perceptron) epochs() int {
	if p.Epochs <= 0 {
		return 20
	}
	return p.Epochs
}

// Train implements Trainer: TrainScratch on a private Scratch the
// returned model takes ownership of, as SVM.Train does.
func (p Perceptron) Train(gram *linalg.Matrix, y []int) (*DualModel, error) {
	return p.TrainScratch(gram, y, &Scratch{})
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func absf(a float64) float64 {
	if a < 0 {
		return -a
	}
	return a
}

var (
	_ Trainer = SVM{}
	_ Trainer = Ridge{}
	_ Trainer = Perceptron{}
)
