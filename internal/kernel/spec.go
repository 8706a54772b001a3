// Kernel specs: a serializable, self-describing encoding of the kernel
// algebra, so a fitted multiple-kernel configuration can leave the process
// (model artifacts, see internal/model) and be rebuilt bit-identically at
// load time.
//
// ToSpec walks a kernel composition tree built from the package's concrete
// types (Linear, Polynomial, RBF, Normalized, Subspace, Sum, Product) and
// produces a pure-data Spec; FromSpec inverts it. Because every kernel in
// this package is a value struct whose evaluation depends only on its
// fields, FromSpec(ToSpec(k)) evaluates bit-identically to k — the
// round-trip guarantee model artifacts rely on.
package kernel

import (
	"fmt"
)

// Spec kind tags. The set is closed: ToSpec rejects kernels outside the
// package's algebra rather than encode something FromSpec could not rebuild.
const (
	SpecLinear     = "linear"
	SpecPolynomial = "polynomial"
	SpecRBF        = "rbf"
	SpecNormalized = "normalized"
	SpecSubspace   = "subspace"
	SpecSum        = "sum"
	SpecProduct    = "product"
)

// Spec is the serializable description of one node of a kernel composition
// tree. Only the fields relevant to Kind are populated; the JSON encoding
// omits the rest.
type Spec struct {
	Kind string `json:"kind"`

	// Polynomial parameters (Kind == SpecPolynomial).
	Degree int     `json:"degree,omitempty"`
	Coef0  float64 `json:"coef0,omitempty"`
	// Gamma is shared by SpecPolynomial and SpecRBF.
	Gamma float64 `json:"gamma,omitempty"`

	// Features are the 0-based column indices of a SpecSubspace restriction.
	Features []int `json:"features,omitempty"`

	// Base is the wrapped kernel of SpecNormalized and SpecSubspace.
	Base *Spec `json:"base,omitempty"`

	// Kernels and Weights describe SpecSum / SpecProduct members (Weights is
	// nil for uniform sums and for products).
	Kernels []*Spec   `json:"kernels,omitempty"`
	Weights []float64 `json:"weights,omitempty"`
}

// ToSpec encodes a kernel composition built from this package's concrete
// types into a Spec tree. Kernels outside the closed algebra (for example a
// caller-defined Kernel implementation) return an error: they could not be
// rebuilt by FromSpec.
func ToSpec(k Kernel) (*Spec, error) {
	switch v := k.(type) {
	case Linear:
		return &Spec{Kind: SpecLinear}, nil
	case Polynomial:
		return &Spec{Kind: SpecPolynomial, Degree: v.Degree, Gamma: v.Gamma, Coef0: v.Coef0}, nil
	case RBF:
		return &Spec{Kind: SpecRBF, Gamma: v.Gamma}, nil
	case Normalized:
		base, err := ToSpec(v.Base)
		if err != nil {
			return nil, err
		}
		return &Spec{Kind: SpecNormalized, Base: base}, nil
	case Subspace:
		base, err := ToSpec(v.Base)
		if err != nil {
			return nil, err
		}
		feats := append([]int(nil), v.Features...)
		return &Spec{Kind: SpecSubspace, Features: feats, Base: base}, nil
	case Sum:
		members, err := toSpecs(v.Kernels)
		if err != nil {
			return nil, err
		}
		var w []float64
		if v.Weights != nil {
			if len(v.Weights) != len(v.Kernels) {
				return nil, fmt.Errorf("kernel: sum has %d weights for %d members", len(v.Weights), len(v.Kernels))
			}
			w = append([]float64(nil), v.Weights...)
		}
		return &Spec{Kind: SpecSum, Kernels: members, Weights: w}, nil
	case Product:
		members, err := toSpecs(v.Kernels)
		if err != nil {
			return nil, err
		}
		return &Spec{Kind: SpecProduct, Kernels: members}, nil
	default:
		return nil, fmt.Errorf("kernel: cannot encode %T as a spec", k)
	}
}

func toSpecs(ks []Kernel) ([]*Spec, error) {
	out := make([]*Spec, len(ks))
	for i, k := range ks {
		s, err := ToSpec(k)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// maxSpecDepth bounds the nesting of a spec tree: the number of nodes on
// its longest root-to-leaf path. It is the depth of the deepest spec ToSpec
// emits for a fitted configuration — FromPartition over NormalizedFactory,
// Sum (or Product) → Subspace → Normalized → base kernel. Specs arrive from
// untrusted artifacts, and Normalized evaluates its base three times per
// value, so each extra wrapper triples the cost of every kernel value; a
// 490-byte spec 16 levels deep would take seconds per Eval.
const maxSpecDepth = 4

// FromSpec rebuilds the kernel a Spec tree describes. The result evaluates
// bit-identically to the kernel ToSpec encoded (value structs, field-for-
// field). Malformed specs — unknown kinds, missing operands, negative
// subspace features, trees nested deeper than a fitted configuration can
// be (maxSpecDepth) — return an error rather than a kernel that would
// panic, or run for seconds, at evaluation time.
func (s *Spec) FromSpec() (Kernel, error) { return s.fromSpec(1) }

// fromSpec is FromSpec for a node at the given depth (the root is 1).
func (s *Spec) fromSpec(depth int) (Kernel, error) {
	if s == nil {
		return nil, fmt.Errorf("kernel: nil spec")
	}
	if depth > maxSpecDepth {
		return nil, fmt.Errorf("kernel: spec nested deeper than %d levels", maxSpecDepth)
	}
	switch s.Kind {
	case SpecLinear:
		return Linear{}, nil
	case SpecPolynomial:
		if s.Degree <= 0 {
			return nil, fmt.Errorf("kernel: polynomial spec needs a positive degree, got %d", s.Degree)
		}
		return Polynomial{Degree: s.Degree, Gamma: s.Gamma, Coef0: s.Coef0}, nil
	case SpecRBF:
		return RBF{Gamma: s.Gamma}, nil
	case SpecNormalized:
		base, err := s.Base.fromSpec(depth + 1)
		if err != nil {
			return nil, err
		}
		return Normalized{Base: base}, nil
	case SpecSubspace:
		if len(s.Features) == 0 {
			return nil, fmt.Errorf("kernel: subspace spec has no features")
		}
		for _, f := range s.Features {
			if f < 0 {
				return nil, fmt.Errorf("kernel: subspace spec has negative feature index %d", f)
			}
		}
		base, err := s.Base.fromSpec(depth + 1)
		if err != nil {
			return nil, err
		}
		return Subspace{Base: base, Features: append([]int(nil), s.Features...)}, nil
	case SpecSum:
		members, err := fromSpecs(s.Kernels, depth+1)
		if err != nil {
			return nil, err
		}
		if s.Weights != nil && len(s.Weights) != len(members) {
			return nil, fmt.Errorf("kernel: sum spec has %d weights for %d members", len(s.Weights), len(members))
		}
		var w []float64
		if s.Weights != nil {
			w = append([]float64(nil), s.Weights...)
		}
		return Sum{Kernels: members, Weights: w}, nil
	case SpecProduct:
		members, err := fromSpecs(s.Kernels, depth+1)
		if err != nil {
			return nil, err
		}
		return Product{Kernels: members}, nil
	default:
		return nil, fmt.Errorf("kernel: unknown spec kind %q", s.Kind)
	}
}

func fromSpecs(specs []*Spec, depth int) ([]Kernel, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("kernel: combiner spec has no members")
	}
	out := make([]Kernel, len(specs))
	for i, s := range specs {
		k, err := s.fromSpec(depth)
		if err != nil {
			return nil, err
		}
		out[i] = k
	}
	return out, nil
}

// MaxDim returns the highest 0-based feature index the spec tree touches
// plus one — the minimum input dimensionality vectors must have to be
// evaluated by the rebuilt kernel. Kernels without subspace restrictions
// evaluate over whatever they are given, so MaxDim returns 0 for them.
func (s *Spec) MaxDim() int {
	if s == nil {
		return 0
	}
	max := 0
	for _, f := range s.Features {
		if f+1 > max {
			max = f + 1
		}
	}
	if d := s.Base.MaxDim(); d > max {
		max = d
	}
	for _, m := range s.Kernels {
		if d := m.MaxDim(); d > max {
			max = d
		}
	}
	return max
}
