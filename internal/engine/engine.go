// Package engine names the numeric backends of the evaluator: the Backend
// value selecting which arithmetic carries Gram assembly into scratch, the
// factor/solve step (Cholesky plus the heavier-ridge fallback), and
// scores-into during candidate scoring. The arithmetic itself lives with
// the kernels it instantiates (linalg, kernel, kernelmachine, mkl); this
// package holds only the selection, its spellings, and Auto.
//
// Three backends exist:
//
//   - Float64 — the bit-identical reference. Every equivalence suite in the
//     repository (vectorized vs pairwise Gram, CV fast path vs scalar
//     reference, parallel vs sequential, distributed vs local) is stated
//     against this backend, and it is the zero value: a Config that never
//     mentions backends gets it.
//   - Float32 — the fast path: f32 storage for column blocks, per-block
//     Grams, Cholesky factors, and coefficients, with every inner loop
//     accumulating in float64 (SYRK/GEMM-style dot products, distance
//     expansions, substitutions). Halving the memory traffic of the
//     Gram-bound scoring loop is the win; the cost is a bounded elementwise
//     error (Tol32). There is no separate f32 code: the dense kernels
//     (linalg), the block-Gram cache (kernel.DenseGramCache), the ridge
//     solve (kernelmachine.RidgeScratch) and the scoring body (mkl) are
//     each written once, generic over float32|float64, and this backend
//     is their float32 instantiation. Scoring is bit-identical across
//     worker counts (each block Gram is computed by one deterministic
//     routine regardless of which worker computes it first).
//   - Nystrom / RFF — the approximate factor-space backends: candidates are
//     scored on cached low-rank block factors (kernel.ApproxGramCache)
//     instead of materialized Grams, keeping the PR 7 error bounds. Rank 0
//     selects kernel.DefaultApproxRank.
//
// The deployment fit (mkl.TrainDeployed / HoldoutAccuracy) always runs in
// exact float64 whatever backend scored the search, so persisted artifacts
// never carry backend-dependent coefficients.
package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// Tol32 is the Float32 backend's documented elementwise tolerance contract
// against the Float64 reference: every assembled Gram entry satisfies
// |K32 − K64| ≤ Tol32 · max(1, |K64|). The equivalence suites assert it.
//
//iotml:allow unusedexport -- the documented f32 tolerance contract; its own package's equivalence suites are its readers
const Tol32 = 1e-4

// Kind enumerates the numeric backends. The zero value is Float64Kind, so a
// zero Backend selects the bit-identical reference path.
type Kind int

const (
	// Float64Kind is the exact float64 reference backend (the default).
	Float64Kind Kind = iota
	// Float32Kind is the f32-storage / f64-accumulation fast backend.
	Float32Kind
	// NystromKind scores on Nyström landmark factors.
	NystromKind
	// RFFKind scores on random-Fourier-feature factors (RBF blocks;
	// Nyström fallback elsewhere).
	RFFKind
)

// Backend selects the numeric backend of one evaluator. It is a plain
// comparable value: configurations, CLI flags, and the distributed-search
// Spec all carry it by value, and the zero Backend is Float64.
type Backend struct {
	Kind Kind
	// Rank is the per-block rank of the approximate kinds (Nyström landmark
	// count or RFF feature count); 0 selects kernel.DefaultApproxRank.
	// Ignored by Float64 and Float32.
	Rank int
}

// Float64 is the exact reference backend — identical to the zero Backend.
var Float64 = Backend{Kind: Float64Kind}

// Float32 is the f32-storage fast backend.
var Float32 = Backend{Kind: Float32Kind}

// Nystrom returns the Nyström backend with the given per-block rank
// (0 selects kernel.DefaultApproxRank).
func Nystrom(rank int) Backend { return Backend{Kind: NystromKind, Rank: rank} }

// RFF returns the random-Fourier-feature backend with the given per-block
// rank (0 selects kernel.DefaultApproxRank).
func RFF(rank int) Backend { return Backend{Kind: RFFKind, Rank: rank} }

// IsApprox reports whether the backend scores on low-rank factors rather
// than materialized Grams (and therefore supports budgeted search).
func (b Backend) IsApprox() bool { return b.Kind == NystromKind || b.Kind == RFFKind }

// String returns the canonical CLI spelling: "exact", "f32",
// "nystrom[:rank]", or "rff[:rank]". Parse round-trips it.
func (b Backend) String() string {
	switch b.Kind {
	case Float32Kind:
		return "f32"
	case NystromKind:
		if b.Rank > 0 {
			return "nystrom:" + strconv.Itoa(b.Rank)
		}
		return "nystrom"
	case RFFKind:
		if b.Rank > 0 {
			return "rff:" + strconv.Itoa(b.Rank)
		}
		return "rff"
	default:
		return "exact"
	}
}

// Parse parses the CLI/Spec spelling of a backend: "exact" (aliases
// "float64", "f64"), "f32" (alias "float32"), and "nystrom[:rank]" /
// "rff[:rank]" with an optional positive per-block rank. "auto" is
// deliberately rejected: automatic selection needs the workload in hand, so
// callers resolve it first (iotml.AutoBackend / engine.Auto) and pass the
// concrete result — a distributed Spec must never carry "auto", or workers
// could resolve it differently than the coordinator.
func Parse(s string) (Backend, error) {
	name, rankStr, hasRank := strings.Cut(s, ":")
	rank := 0
	if hasRank {
		r, err := strconv.Atoi(rankStr)
		if err != nil || r <= 0 {
			return Backend{}, fmt.Errorf("engine: invalid backend rank %q (want a positive integer)", rankStr)
		}
		rank = r
	}
	switch name {
	case "exact", "float64", "f64":
		if hasRank {
			return Backend{}, fmt.Errorf("engine: backend %q takes no rank", name)
		}
		return Float64, nil
	case "f32", "float32":
		if hasRank {
			return Backend{}, fmt.Errorf("engine: backend %q takes no rank", name)
		}
		return Float32, nil
	case "nystrom":
		return Nystrom(rank), nil
	case "rff":
		return RFF(rank), nil
	case "auto":
		return Backend{}, fmt.Errorf("engine: backend \"auto\" must be resolved against a concrete workload first (see iotml.AutoBackend)")
	default:
		return Backend{}, fmt.Errorf("engine: unknown backend %q (want exact, f32, nystrom[:rank], or rff[:rank])", name)
	}
}

// DefaultAutoRank is the per-block rank Auto assigns when it selects an
// approximate backend.
const DefaultAutoRank = 256

// Auto picks a backend from the workload shape — the one-line selection
// facade behind iotml.AutoBackend. n is the training-set size and alignment
// reports whether the objective is kernel-target alignment (cheaper per
// candidate than cross-validated accuracy, so the exact backends stretch
// further):
//
//	objective        n ≤ small    n ≤ medium   larger
//	alignment        Float64      Float32      Nystrom(DefaultAutoRank)
//	                 (≤ 2048)     (≤ 8192)
//	CV accuracy      Float64      Float32      Nystrom(DefaultAutoRank)
//	                 (≤ 1024)     (≤ 4096)
//
// The thresholds keep the exact reference wherever its O(n²) assembly is
// cheap, switch to the f32 fast path while a dense Gram still fits hot
// caches, and hand everything larger to the low-rank engine.
func Auto(n int, alignment bool) Backend {
	small, medium := 1024, 4096
	if alignment {
		small, medium = 2048, 8192
	}
	switch {
	case n <= small:
		return Float64
	case n <= medium:
		return Float32
	default:
		return Nystrom(DefaultAutoRank)
	}
}
