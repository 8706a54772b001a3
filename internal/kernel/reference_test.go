package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/partition"
)

// refCrossGramInto is the three-argument cross-Gram chain that
// bind-then-fill replaced, kept as the bit-level reference: every call
// extracts both sides' subspace columns, norms both sides and takes both
// sides' self-similarities afresh, with the same per-entry operations in
// the same order. It reports false for a kernel without a block formula.
func refCrossGramInto(dst, a, b *linalg.Matrix, k Kernel) bool {
	switch k := k.(type) {
	case Linear:
		linalg.GemmNTInto(dst, a, b)
	case Polynomial:
		linalg.GemmNTInto(dst, a, b)
		deg := float64(k.Degree)
		for i := range dst.Data {
			dst.Data[i] = math.Pow(k.Gamma*dst.Data[i]+k.Coef0, deg)
		}
	case RBF:
		linalg.GemmNTInto(dst, a, b)
		na := linalg.RowSquaredNorms(nil, a)
		nb := linalg.RowSquaredNorms(nil, b)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < b.Rows; j++ {
				v := na[i] + nb[j] - 2*dst.Data[i*dst.Cols+j]
				if v < 0 {
					v = 0
				}
				dst.Data[i*dst.Cols+j] = v
			}
		}
		for i := range dst.Data {
			dst.Data[i] = math.Exp(-k.Gamma * dst.Data[i])
		}
	case Subspace:
		return refCrossGramInto(dst, refColumns(a, k.Features), refColumns(b, k.Features), k.Base)
	case Normalized:
		if !refCrossGramInto(dst, a, b, k.Base) {
			return false
		}
		selfA := make([]float64, a.Rows)
		for i := range selfA {
			selfA[i] = k.Base.Eval(a.Row(i), a.Row(i))
		}
		selfB := make([]float64, b.Rows)
		for j := range selfB {
			selfB[j] = k.Base.Eval(b.Row(j), b.Row(j))
		}
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < b.Rows; j++ {
				v := 0.0
				if selfA[i] > 0 && selfB[j] > 0 {
					v = dst.Data[i*dst.Cols+j] / math.Sqrt(selfA[i]*selfB[j])
				}
				dst.Data[i*dst.Cols+j] = v
			}
		}
	case Sum:
		scratch := linalg.NewMatrix(dst.Rows, dst.Cols)
		for i := range dst.Data {
			dst.Data[i] = 0
		}
		for i, m := range k.Kernels {
			if !refCrossGramInto(scratch, a, b, m) {
				return false
			}
			w := 1.0
			if k.Weights != nil {
				w = k.Weights[i]
			}
			for j := range dst.Data {
				dst.Data[j] += w * scratch.Data[j]
			}
		}
	case Product:
		scratch := linalg.NewMatrix(dst.Rows, dst.Cols)
		for i := range dst.Data {
			dst.Data[i] = 1
		}
		for _, m := range k.Kernels {
			if !refCrossGramInto(scratch, a, b, m) {
				return false
			}
			for j := range dst.Data {
				dst.Data[j] *= scratch.Data[j]
			}
		}
	default:
		return false
	}
	return true
}

// refGramFromPartition is the composite Gram chain the block cache
// replaced, kept as the bit-level reference for the one assembly route:
// the configuration kernel FromPartition builds, evaluated member by
// member — each member's subspace columns extracted afresh, its base
// formula run on them, and the members accumulated in member order into
// the output. A configuration with any member lacking a block formula is
// evaluated pairwise as a whole, as the composite chain did.
func refGramFromPartition(p partition.Partition, factory BlockKernelFactory, combiner Combiner, x [][]float64) *linalg.Matrix {
	k := FromPartition(p, factory, combiner)
	g := linalg.NewMatrix(len(x), len(x))
	if !refGramInto(g, linalg.FromRows(x), k) {
		return GramPairwise(k, x)
	}
	return g
}

// refGramInto is one link of the composite chain: dst (n×n) = the Gram of
// k over the rows of x. It reports false for a kernel without a block
// formula.
func refGramInto(dst, x *linalg.Matrix, k Kernel) bool {
	n := x.Rows
	switch k := k.(type) {
	case Linear:
		linalg.SyrkInto(dst, x)
	case Polynomial:
		linalg.SyrkInto(dst, x)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := math.Pow(k.Gamma*dst.Data[i*n+j]+k.Coef0, float64(k.Degree))
				dst.Data[i*n+j], dst.Data[j*n+i] = v, v
			}
		}
	case RBF:
		linalg.PairwiseSquaredDistancesUpperInto(dst, x)
		for i := 0; i < n; i++ {
			dst.Data[i*n+i] = 1
			for j := i + 1; j < n; j++ {
				v := math.Exp(-k.Gamma * dst.Data[i*n+j])
				dst.Data[i*n+j], dst.Data[j*n+i] = v, v
			}
		}
	case Normalized:
		if !refGramInto(dst, x, k.Base) {
			return false
		}
		diag := make([]float64, n)
		for i := range diag {
			diag[i] = dst.Data[i*n+i]
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := 0.0
				if diag[i] > 0 && diag[j] > 0 {
					v = dst.Data[i*n+j] / math.Sqrt(diag[i]*diag[j])
				}
				dst.Data[i*n+j], dst.Data[j*n+i] = v, v
			}
		}
	case Subspace:
		return refGramInto(dst, refColumns(x, k.Features), k.Base)
	case Sum:
		scratch := linalg.NewMatrix(n, n)
		for i := range dst.Data {
			dst.Data[i] = 0
		}
		for i, m := range k.Kernels {
			if !refGramInto(scratch, x, m) {
				return false
			}
			w := 1.0
			if k.Weights != nil {
				w = k.Weights[i]
			}
			for j := range dst.Data {
				dst.Data[j] += w * scratch.Data[j]
			}
		}
	case Product:
		scratch := linalg.NewMatrix(n, n)
		for i := range dst.Data {
			dst.Data[i] = 1
		}
		for _, m := range k.Kernels {
			if !refGramInto(scratch, x, m) {
				return false
			}
			for j := range dst.Data {
				dst.Data[j] *= scratch.Data[j]
			}
		}
	default:
		return false
	}
	return true
}

// TestGramForPartitionMatchesScalarReference pins the block cache's
// assembly — the one route to a partition's Gram — to the composite chain
// bit for bit: every factory kind, both combiners, the coarsest, finest
// and a mixed partition, at the default limit (blocks reused across
// partitions on the second pass), at limit 1 (eviction inside one
// partition) and with retention disabled, on n=37 rows (not a multiple of
// the linalg tile width).
func TestGramForPartitionMatchesScalarReference(t *testing.T) {
	const n, d = 37, 7
	x := testRows(n, d, 47)
	parts := []partition.Partition{
		partition.Coarsest(d),
		partition.Finest(d),
		partition.MustFromBlocks(d, [][]int{{1, 4}, {2, 3, 6}, {5}, {7}}),
	}
	factories := []struct {
		name    string
		factory BlockKernelFactory
	}{
		{"rbf", RBFFactory(1.0)},
		{"linear", LinearFactory()},
		{"poly", func(feats []int) Kernel {
			return Polynomial{Degree: 2, Gamma: 1 / float64(len(feats)), Coef0: 1}
		}},
		{"norm-rbf", NormalizedFactory(RBFFactory(0.7))},
		{"eval-only", func(feats []int) Kernel { return hideBlock{RBFFactory(1.0)(feats)} }},
	}
	for _, limit := range []int{0, 1, -1} {
		for _, f := range factories {
			for _, combiner := range []Combiner{CombineSum, CombineProduct} {
				cache := NewBlockGramCache(x, f.factory, limit)
				var sc AssemblyScratch
				var out *linalg.Matrix
				for pass := 0; pass < 2; pass++ {
					for _, p := range parts {
						out = cache.GramForPartitionScratch(p, combiner, out, &sc)
						want := refGramFromPartition(p, f.factory, combiner, x)
						for i := range want.Data {
							if math.Float64bits(out.Data[i]) != math.Float64bits(want.Data[i]) {
								t.Fatalf("limit %d %s %v %v pass %d: entry %d = %v, reference %v (must be bit-identical)",
									limit, f.name, combiner, p, pass, i, out.Data[i], want.Data[i])
							}
						}
					}
				}
			}
		}
	}
}

// refColumns gathers the given columns of x one element at a time.
func refColumns(x *linalg.Matrix, cols []int) *linalg.Matrix {
	out := linalg.NewMatrix(x.Rows, len(cols))
	for i := 0; i < x.Rows; i++ {
		for k, c := range cols {
			out.Set(i, k, x.At(i, c))
		}
	}
	return out
}

// namedKernel is one row of a kernel table.
type namedKernel struct {
	name string
	k    Kernel
}

// boundCrossKernels is every kernel shape a model artifact can carry over
// 18 features: each base kernel under Subspace, both combiners with and
// without weights, and the FromPartition configurations the search fits.
func boundCrossKernels() []namedKernel {
	p := partition.MustFromBlocks(18, [][]int{{1, 2, 3}, {4, 9}, {5, 6, 7, 8}, {10}, {11, 12, 13, 14, 15, 16, 17, 18}})
	sub := func(base Kernel, feats ...int) Kernel { return Subspace{Base: base, Features: feats} }
	members := []Kernel{
		sub(RBF{Gamma: 0.7}, 0, 4, 9),
		sub(Linear{}, 17, 2),
		sub(Normalized{Base: RBF{Gamma: 0.3}}, 5, 6, 7, 8, 11),
		sub(Polynomial{Degree: 2, Gamma: 0.5, Coef0: 1}, 3, 16),
	}
	return []namedKernel{
		{"sub-linear", sub(Linear{}, 3, 1, 12)},
		{"sub-poly", sub(Polynomial{Degree: 3, Gamma: 0.4, Coef0: 1.1}, 0, 7)},
		{"sub-rbf", sub(RBF{Gamma: 0.8}, 2, 5, 11, 14)},
		{"sub-norm-rbf", sub(Normalized{Base: RBF{Gamma: 0.5}}, 6, 9, 13)},
		{"sum-nil-weights", Sum{Kernels: members}},
		{"sum-weights", Sum{Kernels: members, Weights: []float64{0.1, 0.2, 0.3, 0.4}}},
		{"product", Product{Kernels: members}},
		{"fp-sum-rbf", FromPartition(p, RBFFactory(1.0), CombineSum)},
		{"fp-product-rbf", FromPartition(p, RBFFactory(1.0), CombineProduct)},
		{"fp-sum-norm-rbf", FromPartition(p, NormalizedFactory(RBFFactory(0.5)), CombineSum)},
	}
}

// TestBoundCrossGramMatchesScalarReference pins bind-then-fill to the
// per-call chain bit for bit: one bound value, filled at a-row counts
// around the 32-row serving batch in changing order, against b with 1 and
// 600 rows, all through one shared CrossScratch.
func TestBoundCrossGramMatchesScalarReference(t *testing.T) {
	const d = 18
	pool := linalg.FromRows(testRows(33, d, 41))
	var sc CrossScratch
	for _, nb := range []int{1, 600} {
		b := linalg.FromRows(testRows(nb, d, 43))
		for _, nk := range boundCrossKernels() {
			name, k := nk.name, nk.k
			bound, ok := k.(BlockGramKernel).BindCross(b)
			if !ok {
				t.Fatalf("%s refused BindCross", name)
			}
			for _, na := range []int{32, 1, 33, 2, 31, 32, 1, 33} {
				a := &linalg.Matrix{Rows: na, Cols: d, Data: pool.Data[:na*d]}
				got := linalg.NewMatrix(na, nb)
				bound.Fill(got, a, &sc)
				want := linalg.NewMatrix(na, nb)
				if !refCrossGramInto(want, a, b, k) {
					t.Fatalf("%s: reference refused", name)
				}
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%s a=%d b=%d: entry %d = %v, reference %v (must be bit-identical)",
							name, na, nb, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
	if sc.top != 0 {
		t.Fatalf("fills left %d scratch slots taken", sc.top)
	}
}

// refCenter applies the feature-space centering transform
// K' = K - 1K/n - K1/n + 1K1/n² in place, with the row means and total
// accumulated in float64 and each entry rounded to T once: the first half
// of the two-step alignment that CenteredAlignment fuses.
func refCenter[T linalg.Float](g *linalg.Dense[T]) {
	n := g.Rows
	if n == 0 {
		return
	}
	rowMean := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		s := 0.0
		for _, v := range g.Data[i*n : (i+1)*n] {
			s += float64(v)
		}
		rowMean[i] = s / float64(n)
		total += s
	}
	total /= float64(n * n)
	for i := 0; i < n; i++ {
		row := g.Data[i*n : (i+1)*n]
		for j, v := range row {
			row[j] = T(float64(v) - rowMean[i] - rowMean[j] + total)
		}
	}
}

// refAlignment is <K, yyᵀ>_F / (||K||_F · ||yyᵀ||_F) of an already
// centered Gram, accumulated in float64 row by row: the second half of the
// two-step alignment.
func refAlignment[T linalg.Float](g *linalg.Dense[T], y []int) float64 {
	n := g.Rows
	if n == 0 || len(y) != n {
		return 0
	}
	var kyy, kk float64
	for i := 0; i < n; i++ {
		for j, f := range g.Data[i*n : (i+1)*n] {
			v := float64(f)
			kyy += v * float64(y[i]*y[j])
			kk += v * v
		}
	}
	yy := float64(n) // ||yyᵀ||_F = n for ±1 labels
	if kk <= 0 {
		return 0
	}
	return kyy / (math.Sqrt(kk) * yy)
}

// TestCenteredAlignmentMatchesScalarReference pins the fused read-only
// objective to the two-step reference — refCenter on a copy, then
// refAlignment —
// bit for bit at both widths, on symmetric Grams and on arbitrary square
// matrices (rowMean[j] stands in for the column mean only by symmetry),
// and checks that the input is left untouched.
func TestCenteredAlignmentMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 2, 3, 7, 16, 41} {
		y := make([]int, n)
		for i := range y {
			y[i] = 1 - 2*rng.Intn(2)
		}
		sq := linalg.NewMatrix(n, n)
		for i := range sq.Data {
			sq.Data[i] = rng.NormFloat64()
		}
		x := make([][]float64, n)
		for i := range x {
			x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		for _, g := range []*linalg.Matrix{Gram(RBF{Gamma: 0.7}, x), sq, linalg.NewMatrix(n, n)} {
			checkCenteredAlignment(t, n, g, y)
			checkCenteredAlignment(t, n, linalg.Convert[float32](nil, g), y)
		}
	}
	if got := CenteredAlignment(linalg.NewMatrix(2, 2), []int{1}); got != 0 {
		t.Errorf("label length mismatch: got %v, want 0", got)
	}
}

func checkCenteredAlignment[T linalg.Float](t *testing.T, n int, g *linalg.Dense[T], y []int) {
	t.Helper()
	before := g.Clone()
	c := g.Clone()
	refCenter(c)
	want := refAlignment(c, y)
	got := CenteredAlignment(g, y)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("n=%d %T: CenteredAlignment = %v, refCenter+refAlignment = %v", n, g.Data, got, want)
	}
	for i, v := range g.Data {
		if math.Float64bits(float64(v)) != math.Float64bits(float64(before.Data[i])) {
			t.Fatalf("n=%d %T: entry %d changed from %v to %v", n, g.Data, i, before.Data[i], v)
		}
	}
}
