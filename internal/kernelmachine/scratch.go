// Scratch-aware training: the allocation-free fast path for hot evaluation
// loops (one k-fold CV per lattice-search candidate trains k models on
// similarly-sized Grams, thousands of times per search).
//
// Scratch ownership rules:
//
//   - A Scratch belongs to exactly one goroutine; trainers never retain it
//     beyond the TrainScratch call.
//   - The returned DualModel aliases the Scratch's buffers. It is valid until
//     the next TrainScratch call with the same Scratch — consume (score)
//     each model before training the next, or use distinct Scratches.
//   - The gram matrix passed to TrainScratch is read-only: TrainScratch
//     never writes to it (regularization is applied to a scratch gather).
//
// Exactness contract: RidgeScratch.Solve is the single ridge
// gather → regularize → factor → fallback → solve routine, generic over
// the storage width (see FitRidge). SVM.TrainScratch and
// Perceptron.TrainScratch are the single SMO and perceptron loops — each
// Train delegates to its TrainScratch with a private Scratch — so the two
// entry points are bit-identical by construction.
package kernelmachine

import (
	"fmt"
	"math/rand"

	"repro/internal/linalg"
)

// ScratchTrainer is implemented by trainers that can fit a model using
// caller-owned scratch buffers instead of per-call allocations. See the
// package notes in this file for the ownership and exactness rules.
type ScratchTrainer interface {
	Trainer
	TrainScratch(gram *linalg.Matrix, y []int, s *Scratch) (*DualModel, error)
}

// Scratch holds the reusable buffers of scratch-aware trainers. The zero
// value is ready to use; buffers grow to the largest training set seen and
// are retained across calls (capacity-based reuse, so alternating fold
// sizes n/k and n/k+1 settle on one allocation).
type Scratch struct {
	ridge RidgeScratch[float64]
	v1    []float64 // alpha (svm)
	v2    []float64 // fy (svm)
	v3    []float64 // error cache E_i (svm)
	v4    []float64 // dual coefficients (svm, perceptron)
	model DualModel
}

// RidgeScratch holds the buffers of one ridge system at storage width T —
// the regularized matrix, its Cholesky factor, the right-hand side, the
// coefficients, and the identity indices of whole-matrix solves. The zero
// value is ready; it belongs to one goroutine and its buffers are
// capacity-reused across solves.
type RidgeScratch[T linalg.Float] struct {
	kreg, chol *linalg.Dense[T]
	rhs, coef  []T
	all        []int
}

// vec returns buf resized to n, reusing capacity. Contents are unspecified.
func vec(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// finish points the Scratch's reusable model at the given coefficients.
func (s *Scratch) finish(coeff []float64, b float64) *DualModel {
	s.model.coeff = coeff
	s.model.b = b
	return &s.model
}

// TrainScratch implements ScratchTrainer: FitRidge at float64 on the
// whole of gram, into the Scratch's buffers.
//
//iotml:hotpath
func (r Ridge) TrainScratch(gram *linalg.Matrix, y []int, s *Scratch) (*DualModel, error) {
	if err := validate(gram, y); err != nil {
		return nil, err
	}
	coef, err := FitRidge(r, gram, nil, y, &s.ridge)
	if err != nil {
		return nil, err
	}
	return s.finish(coef, 0), nil
}

// FitRidge fits the dual ridge coefficients of labels y on the training
// Gram gram[idx][idx] (all of gram when idx is nil) at gram's storage
// width: RidgeScratch.Solve against y with r's λ, scaled by the
// training-set size len(y). gram is read-only; the coefficients alias s
// and are valid until its next use.
//
//iotml:hotpath
func FitRidge[T linalg.Float](r Ridge, gram *linalg.Dense[T], idx []int, y []int, s *RidgeScratch[T]) ([]T, error) {
	n := len(y)
	if cap(s.rhs) < n {
		s.rhs = make([]T, n)
	}
	s.rhs = s.rhs[:n]
	for i, v := range y {
		s.rhs[i] = T(v)
	}
	return s.Solve(r, gram, idx, s.rhs, n)
}

// Solve solves (A + λ·n/10·I)·β = rhs for A = a[idx][idx] (all of a when
// idx is nil), with r's λ (default 1e-2), and, when that Cholesky pivot
// fails, retries with the heavier ridge 1 + λ·n before giving up — the
// regularization schedule of every ridge fit in the repository, dual
// (A = K, n training points) or primal (A = FᵀF). Each attempt gathers
// A's lower triangle, the only half linalg.CholeskyInto reads, straight
// from a into scratch (linalg.GatherLowerInto) and adds the ridge,
// rounded once to T, to its diagonal. a and rhs are read-only; β aliases
// s until its next use.
//
//iotml:hotpath
func (s *RidgeScratch[T]) Solve(r Ridge, a *linalg.Dense[T], idx []int, rhs []T, n int) ([]T, error) {
	lambda := r.lambda()
	if idx == nil {
		if len(s.all) < a.Rows {
			s.all = make([]int, a.Rows)
			for i := range s.all {
				s.all[i] = i
			}
		}
		idx = s.all[:a.Rows]
	}
	if s.chol == nil {
		s.chol = linalg.NewDense[T](len(idx), len(idx))
	}
	s.kreg = linalg.GatherLowerInto(s.kreg, a, idx)
	s.kreg.AddScaledDiag(lambda * float64(n) / 10)
	if err := linalg.CholeskyInto(s.chol, s.kreg); err != nil {
		s.kreg = linalg.GatherLowerInto(s.kreg, a, idx)
		s.kreg.AddScaledDiag(1 + lambda*float64(n))
		if err := linalg.CholeskyInto(s.chol, s.kreg); err != nil {
			//iotml:allow hotpathalloc -- cold double-failure path; formatting happens only when the solve is already abandoned
			return nil, fmt.Errorf("kernelmachine: ridge solve failed: %w", err)
		}
	}
	s.coef = linalg.SolveCholeskyInto(s.coef, s.chol, rhs)
	return s.coef, nil
}

// TrainScratch implements ScratchTrainer: simplified SMO with the standard
// error cache. Where the historical implementation recomputed
// score(i) = b + Σ_j α_j y_j K(j,i) in O(n) at every examination, the
// cache keeps every E_i = score(i) − y_i current with one O(n) incremental
// update per successful pair step — O(n) per change instead of O(n) per
// examination — streaming the two updated rows of the (symmetric,
// row-major) Gram matrix instead of walking columns. This is the single
// SMO implementation; Train wraps it with a private Scratch.
//
//iotml:hotpath
func (s SVM) TrainScratch(gram *linalg.Matrix, y []int, sc *Scratch) (*DualModel, error) {
	if err := validate(gram, y); err != nil {
		return nil, err
	}
	n := len(y)
	c := s.c()
	tol := s.Tol
	if tol <= 0 {
		tol = 1e-3
	}
	maxPasses := s.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 5
	}
	maxIter := s.MaxIter
	if maxIter <= 0 {
		maxIter = 200
	}
	rng := rand.New(rand.NewSource(s.Seed + 1))

	alpha := vec(&sc.v1, n)
	fy := vec(&sc.v2, n)
	errs := vec(&sc.v3, n)
	b := 0.0
	for i, v := range y {
		alpha[i] = 0
		fy[i] = float64(v)
		errs[i] = -fy[i] // score(i) = 0 at α = 0, b = 0
	}

	passes, iter := 0, 0
	for passes < maxPasses && iter < maxIter {
		changed := 0
		for i := 0; i < n; i++ {
			ei := errs[i]
			if !((fy[i]*ei < -tol && alpha[i] < c) || (fy[i]*ei > tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := errs[j]
			ai, aj := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = maxf(0, aj-ai)
				hi = minf(c, c+aj-ai)
			} else {
				lo = maxf(0, ai+aj-c)
				hi = minf(c, ai+aj)
			}
			if hi-lo < 1e-12 {
				continue
			}
			rowI := gram.Data[i*n : (i+1)*n]
			rowJ := gram.Data[j*n : (j+1)*n]
			eta := 2*rowI[j] - rowI[i] - rowJ[j]
			if eta >= 0 {
				continue
			}
			ajNew := aj - fy[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if absf(ajNew-aj) < 1e-7 {
				continue
			}
			aiNew := ai + fy[i]*fy[j]*(aj-ajNew)
			b1 := b - ei - fy[i]*(aiNew-ai)*rowI[i] - fy[j]*(ajNew-aj)*rowI[j]
			b2 := b - ej - fy[i]*(aiNew-ai)*rowI[j] - fy[j]*(ajNew-aj)*rowJ[j]
			var bNew float64
			switch {
			case aiNew > 0 && aiNew < c:
				bNew = b1
			case ajNew > 0 && ajNew < c:
				bNew = b2
			default:
				bNew = (b1 + b2) / 2
			}
			// Incremental error-cache update: score(k) changes by
			// Δ(α_i y_i) K(i,k) + Δ(α_j y_j) K(j,k) + Δb.
			dai := (aiNew - ai) * fy[i]
			daj := (ajNew - aj) * fy[j]
			db := bNew - b
			for k := 0; k < n; k++ {
				errs[k] += dai*rowI[k] + daj*rowJ[k] + db
			}
			alpha[i], alpha[j] = aiNew, ajNew
			b = bNew
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
		iter++
	}

	coeff := vec(&sc.v4, n)
	for i := range coeff {
		coeff[i] = alpha[i] * fy[i]
	}
	return sc.finish(coeff, b), nil
}

// TrainScratch implements ScratchTrainer: the kernel perceptron's epochs
// over coefficients held in the Scratch, stopping after an epoch without
// a mistake.
//
//iotml:hotpath
func (p Perceptron) TrainScratch(gram *linalg.Matrix, y []int, sc *Scratch) (*DualModel, error) {
	if err := validate(gram, y); err != nil {
		return nil, err
	}
	n := len(y)
	coeff := vec(&sc.v4, n)
	clear(coeff)
	for epoch := 0; epoch < p.epochs(); epoch++ {
		mistakes := 0
		for i := 0; i < n; i++ {
			s := 0.0
			for j, c := range coeff {
				if c != 0 {
					s += c * gram.Data[j*n+i]
				}
			}
			if s*float64(y[i]) <= 0 {
				coeff[i] += float64(y[i])
				mistakes++
			}
		}
		if mistakes == 0 {
			break
		}
	}
	return sc.finish(coeff, 0), nil
}

var (
	_ ScratchTrainer = Ridge{}
	_ ScratchTrainer = SVM{}
	_ ScratchTrainer = Perceptron{}
)
