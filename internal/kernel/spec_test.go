package kernel

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/partition"
)

// specRoundTrip encodes k, re-decodes it (through JSON, the artifact
// transport), and returns the rebuilt kernel.
func specRoundTrip(t *testing.T, k Kernel) Kernel {
	t.Helper()
	spec, err := ToSpec(k)
	if err != nil {
		t.Fatalf("ToSpec(%v): %v", k, err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	var decoded Spec
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal spec: %v", err)
	}
	rebuilt, err := decoded.FromSpec()
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	return rebuilt
}

func TestSpecRoundTripRebuildsEqualKernels(t *testing.T) {
	kernels := []Kernel{
		Linear{},
		Polynomial{Degree: 3, Gamma: 0.5, Coef0: 1},
		RBF{Gamma: 0.25},
		Normalized{Base: RBF{Gamma: 2}},
		Subspace{Base: Linear{}, Features: []int{0, 2, 5}},
		Sum{
			Kernels: []Kernel{
				Subspace{Base: RBF{Gamma: 0.5}, Features: []int{0, 1}},
				Subspace{Base: Polynomial{Degree: 2, Gamma: 1, Coef0: 0.5}, Features: []int{2, 3}},
			},
			Weights: []float64{0.5, 0.5},
		},
		Product{
			Kernels: []Kernel{
				Subspace{Base: Normalized{Base: Linear{}}, Features: []int{0}},
				Subspace{Base: RBF{Gamma: 1.5}, Features: []int{1, 2, 3}},
			},
		},
	}
	for _, k := range kernels {
		rebuilt := specRoundTrip(t, k)
		if !reflect.DeepEqual(k, rebuilt) {
			t.Errorf("round trip of %v rebuilt %#v, want %#v", k, rebuilt, k)
		}
	}
}

func TestSpecRoundTripIsBitIdenticalOnFromPartitionTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const d = 6
	x := make([][]float64, 12)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	parts := []partition.Partition{
		partition.Coarsest(d),
		partition.Finest(d),
		partition.MustFromBlocks(d, [][]int{{1, 2}, {3, 4, 5}, {6}}),
	}
	factories := map[string]BlockKernelFactory{
		"rbf":       RBFFactory(1.0),
		"linear":    LinearFactory(),
		"norm(rbf)": NormalizedFactory(RBFFactory(0.7)),
	}
	for name, factory := range factories {
		for _, combiner := range []Combiner{CombineSum, CombineProduct} {
			for _, p := range parts {
				k := FromPartition(p, factory, combiner)
				rebuilt := specRoundTrip(t, k)
				for i := range x {
					for j := range x {
						a, b := k.Eval(x[i], x[j]), rebuilt.Eval(x[i], x[j])
						if a != b {
							t.Fatalf("%s %v %v: Eval(%d,%d) = %v, rebuilt %v", name, combiner, p, i, j, a, b)
						}
					}
				}
			}
		}
	}
}

func TestToSpecRejectsForeignKernels(t *testing.T) {
	if _, err := ToSpec(foreignKernel{}); err == nil {
		t.Fatal("ToSpec accepted a kernel outside the package algebra")
	}
	// A foreign kernel nested inside a combiner must be rejected too.
	if _, err := ToSpec(Sum{Kernels: []Kernel{Linear{}, foreignKernel{}}}); err == nil {
		t.Fatal("ToSpec accepted a sum containing a foreign kernel")
	}
}

type foreignKernel struct{}

func (foreignKernel) Eval(x, y []float64) float64 { return 0 }
func (foreignKernel) String() string              { return "foreign" }

func TestFromSpecRejectsMalformedSpecs(t *testing.T) {
	bad := []*Spec{
		nil,
		{Kind: "no-such-kernel"},
		{Kind: SpecPolynomial, Degree: 0},
		{Kind: SpecSubspace, Base: &Spec{Kind: SpecLinear}},
		{Kind: SpecSubspace, Features: []int{-1}, Base: &Spec{Kind: SpecLinear}},
		{Kind: SpecSum},
		{Kind: SpecSum, Kernels: []*Spec{{Kind: SpecLinear}}, Weights: []float64{1, 2}},
		{Kind: SpecNormalized},
	}
	for i, s := range bad {
		if _, err := s.FromSpec(); err == nil {
			t.Errorf("case %d: FromSpec accepted malformed spec %+v", i, s)
		}
	}
}

func TestSpecMaxDim(t *testing.T) {
	spec, err := ToSpec(Sum{Kernels: []Kernel{
		Subspace{Base: Linear{}, Features: []int{0, 1}},
		Subspace{Base: RBF{Gamma: 1}, Features: []int{4, 7}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.MaxDim(); got != 8 {
		t.Fatalf("MaxDim = %d, want 8", got)
	}
	plain, _ := ToSpec(Linear{})
	if got := plain.MaxDim(); got != 0 {
		t.Fatalf("MaxDim(linear) = %d, want 0", got)
	}
}

// specDepth is the number of nodes on the longest root-to-leaf path.
func specDepth(s *Spec) int {
	if s == nil {
		return 0
	}
	d := specDepth(s.Base)
	for _, m := range s.Kernels {
		d = max(d, specDepth(m))
	}
	return d + 1
}

// normalizedChain wraps an RBF spec in Normalized nodes until the tree is
// depth levels deep.
func normalizedChain(depth int) *Spec {
	s := &Spec{Kind: SpecRBF, Gamma: 0.5}
	for i := 1; i < depth; i++ {
		s = &Spec{Kind: SpecNormalized, Base: s}
	}
	return s
}

// TestSpecDepthBoundIsTheDeepestFittedSpec derives maxSpecDepth: it is
// exactly the depth of the spec ToSpec emits for FromPartition over
// NormalizedFactory, under either combiner — the deepest tree a fit
// produces.
func TestSpecDepthBoundIsTheDeepestFittedSpec(t *testing.T) {
	p := partition.MustFromBlocks(4, [][]int{{1, 2}, {3}, {4}})
	for _, comb := range []Combiner{CombineSum, CombineProduct} {
		spec, err := ToSpec(FromPartition(p, NormalizedFactory(RBFFactory(0.7)), comb))
		if err != nil {
			t.Fatal(err)
		}
		if got := specDepth(spec); got != maxSpecDepth {
			t.Fatalf("combiner %v: fitted spec depth %d, bound %d", comb, got, maxSpecDepth)
		}
		if _, err := spec.FromSpec(); err != nil {
			t.Fatalf("combiner %v: the deepest fitted spec was rejected: %v", comb, err)
		}
	}
}

func TestFromSpecBoundsNesting(t *testing.T) {
	sub := func(base *Spec) *Spec { return &Spec{Kind: SpecSubspace, Features: []int{0}, Base: base} }
	sum := func(members ...*Spec) *Spec { return &Spec{Kind: SpecSum, Kernels: members} }
	cases := []struct {
		name string
		spec *Spec
		ok   bool
	}{
		{"leaf", normalizedChain(1), true},
		{"normalized", normalizedChain(2), true},
		{"chain at the bound", normalizedChain(maxSpecDepth), true},
		{"chain past the bound", normalizedChain(maxSpecDepth + 1), false},
		{"16-deep normalized chain", normalizedChain(16), false},
		{"fitted shape", sum(sub(normalizedChain(2)), sub(&Spec{Kind: SpecLinear})), true},
		{"one member too deep", sum(sub(normalizedChain(2)), sub(normalizedChain(3))), false},
		{"nested sums", sum(sum(sum(sum(&Spec{Kind: SpecLinear})))), false},
	}
	for _, c := range cases {
		_, err := c.spec.FromSpec()
		if (err == nil) != c.ok {
			t.Errorf("%s (depth %d): err = %v, want ok=%v", c.name, specDepth(c.spec), err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("%s: err = %v, want a nesting error", c.name, err)
		}
	}
}

// FuzzKernelSpec feeds arbitrary JSON to the artifact's spec decoder:
// FromSpec never panics, never accepts a tree past the depth bound, and
// every spec it accepts round-trips through ToSpec to an equal kernel.
func FuzzKernelSpec(f *testing.F) {
	deep, err := json.Marshal(normalizedChain(16))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deep)
	p := partition.MustFromBlocks(3, [][]int{{1, 2}, {3}})
	for _, comb := range []Combiner{CombineSum, CombineProduct} {
		spec, err := ToSpec(FromPartition(p, NormalizedFactory(RBFFactory(0.7)), comb))
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"kind":"polynomial","degree":2,"gamma":1,"coef0":0.5}`))
	f.Add([]byte(`{"kind":"sum","kernels":[{"kind":"linear"}],"weights":[1,2]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s Spec
		if json.Unmarshal(raw, &s) != nil {
			return
		}
		k, err := s.FromSpec()
		if err != nil {
			return
		}
		if d := specDepth(&s); d > maxSpecDepth {
			t.Fatalf("accepted a spec %d levels deep", d)
		}
		again, err := ToSpec(k)
		if err != nil {
			t.Fatalf("ToSpec of an accepted spec: %v", err)
		}
		rebuilt, err := again.FromSpec()
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v", err)
		}
		if !reflect.DeepEqual(k, rebuilt) {
			t.Fatalf("round trip rebuilt %#v, want %#v", rebuilt, k)
		}
	})
}
