// Predictor: the inference engine over a loaded artifact. NewPredictor
// rebuilds the kernel from the artifact's spec and binds it to the
// training rows once (kernel.BindCross: each block's
// training columns extracted, RBF row norms and normalization
// self-similarities taken), so a batch pays only for its own rows: the
// query's columns gathered per block, one cross-Gram fill against the
// bound training side, and one matrix-vector product through the exact
// dual form the trainers produce (kernelmachine.NewDualModel). Scratch is
// reused across batches, so scoring allocates nothing in steady state,
// whatever sequence of batch sizes arrives, once it has grown to the
// largest.
package model

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
)

// Predictor scores feature vectors against an artifact. It owns reusable
// scratch buffers and is NOT safe for concurrent use: give each goroutine
// its own, via Fork, which shares the read-only bound training side (the
// serving worker pool does exactly that — see internal/serve).
type Predictor struct {
	*bound

	// query, cross and sc are the batch scratch: query holds the incoming
	// rows as a dense matrix, cross the batch×NumTrain kernel matrix, sc
	// the working memory of the bound kernel's fill.
	query *linalg.Matrix
	cross *linalg.Matrix
	sc    kernel.CrossScratch
}

// bound is what a Predictor derives from its artifact alone. It is never
// written after NewPredictor, so Forks share it.
type bound struct {
	art   *Artifact
	k     kernel.Kernel
	model kernelmachine.ScratchModel
	// train is k bound to TrainX; nil when k has no block fast path.
	train kernel.BoundCross
}

// NewPredictor validates the artifact, rebuilds its kernel and dual model,
// and binds the kernel to the training rows.
func NewPredictor(a *Artifact) (*Predictor, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	k, err := a.KernelSpec.FromSpec()
	if err != nil {
		return nil, fmt.Errorf("model: rebuilding kernel: %w", err)
	}
	dm := kernelmachine.NewDualModel(a.Coeff, a.Bias)
	sm, ok := dm.(kernelmachine.ScratchModel)
	if !ok {
		// NewDualModel always returns a ScratchModel today; guard the
		// assumption explicitly rather than panic later.
		return nil, fmt.Errorf("model: dual model %T does not support scratch scoring", dm)
	}
	train, _ := kernel.BindCross(k, a.TrainX)
	return &Predictor{bound: &bound{art: a, k: k, model: sm, train: train}}, nil
}

// Fork returns a Predictor over the same artifact that shares p's bound
// training side and has scratch of its own, so it may score concurrently
// with p.
func (p *Predictor) Fork() *Predictor { return &Predictor{bound: p.bound} }

// Artifact returns the artifact this predictor scores against.
func (p *Predictor) Artifact() *Artifact { return p.art }

// Dim returns the feature dimensionality inputs must have.
func (p *Predictor) Dim() int { return p.art.Dim() }

// ValidateRow checks one feature vector against a model input contract:
// exact dimensionality and finite values — the validation API boundaries
// (the serving request decoder, the predict CLI) apply to every incoming
// instance. NaN and ±Inf are rejected: they would propagate silently
// through the kernel arithmetic into every score of the batch.
func ValidateRow(dim int, row []float64) error {
	if len(row) != dim {
		return fmt.Errorf("model: instance has %d features, model wants %d", len(row), dim)
	}
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("model: feature %d is %v; inputs must be finite", j, v)
		}
	}
	return nil
}

// ValidateRow checks one feature vector against this model's input
// contract; see the package-level ValidateRow.
func (p *Predictor) ValidateRow(row []float64) error {
	return ValidateRow(p.art.Dim(), row)
}

// ScoresInto scores the given feature rows, writing the decision scores
// into dst (reused when its capacity suffices) and returning it. Rows are
// validated (dimensionality, finite values); the whole batch is rejected on
// the first invalid row, so batches assembled from multiple requests fail
// atomically before any scoring work.
func (p *Predictor) ScoresInto(dst []float64, rows [][]float64) ([]float64, error) {
	for i, r := range rows {
		if err := p.ValidateRow(r); err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
	}
	return p.ScoresIntoPrevalidated(dst, rows)
}

// ScoresIntoPrevalidated is ScoresInto without the per-row validation scan
// — for callers that already validated every row at their own boundary
// (the serving request decoder does, per coalesced request, before rows
// reach a scoring worker). Feeding it unvalidated rows is a contract
// violation: a wrong-length row corrupts the batch matrix silently and
// NaN/Inf values propagate into every score of the batch.
//
//iotml:hotpath
func (p *Predictor) ScoresIntoPrevalidated(dst []float64, rows [][]float64) ([]float64, error) {
	if len(rows) == 0 {
		return dst[:0], nil
	}
	d := p.art.Dim()
	p.query = linalg.Reshape(p.query, len(rows), d)
	for i, r := range rows {
		copy(p.query.Data[i*d:(i+1)*d], r)
	}
	p.cross = linalg.Reshape(p.cross, len(rows), p.art.NumTrain())
	if p.train != nil {
		p.train.Fill(p.cross, p.query, &p.sc)
	} else {
		// Scalar fallback for kernels without a block fast path. The spec
		// algebra is fully vectorizable today, so this path only runs if a
		// future spec kind opts out of BlockGramKernel.
		for i := 0; i < len(rows); i++ {
			for j := 0; j < p.art.NumTrain(); j++ {
				p.cross.Set(i, j, p.k.Eval(p.query.Row(i), p.art.TrainX.Row(j)))
			}
		}
	}
	return p.model.ScoresInto(dst, p.cross), nil
}

// Scores is the allocating convenience form of ScoresInto.
func (p *Predictor) Scores(rows [][]float64) ([]float64, error) {
	return p.ScoresInto(nil, rows)
}

// Labels converts decision scores to ±1 labels (score 0 goes to +1),
// re-exported here so API layers need not import kernelmachine.
func Labels(scores []float64) []int { return kernelmachine.Classify(scores) }
