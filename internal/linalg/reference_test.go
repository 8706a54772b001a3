package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The scalar reference loops below are the float64 kernels as they stood
// before linalg went generic over Float, kept verbatim (modulo names) so
// the float64 instantiation — and any future tiling of it — is checked
// bit for bit against the historical arithmetic.

func refSyrk(x *Matrix) *Matrix {
	n, d := x.Rows, x.Cols
	dst := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		ri := x.Data[i*d : (i+1)*d]
		for j := i; j < n; j++ {
			rj := x.Data[j*d : (j+1)*d]
			s := 0.0
			for k, v := range ri {
				s += v * rj[k]
			}
			dst.Data[i*n+j] = s
			dst.Data[j*n+i] = s
		}
	}
	return dst
}

func refPairwiseSquaredDistances(x *Matrix) *Matrix {
	n := x.Rows
	dst := refSyrk(x)
	norms := make([]float64, n)
	for i := 0; i < n; i++ {
		norms[i] = dst.Data[i*n+i]
	}
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			v := norms[i] + norms[j] - 2*dst.Data[i*n+j]
			if v < 0 {
				v = 0
			}
			dst.Data[i*n+j] = v
			dst.Data[j*n+i] = v
		}
	}
	return dst
}

func refRowSquaredNorms(x *Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		s := 0.0
		for _, v := range x.Data[i*x.Cols : (i+1)*x.Cols] {
			s += v * v
		}
		out[i] = s
	}
	return out
}

func refGather(src *Matrix, rows, cols []int) *Matrix {
	dst := NewMatrix(len(rows), len(cols))
	for i, r := range rows {
		for j, c := range cols {
			dst.Set(i, j, src.At(r, c))
		}
	}
	return dst
}

func refCholesky(a *Matrix) (*Matrix, error) {
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 1e-14 {
			return nil, ErrSingular
		}
		l.Set(j, j, math.Sqrt(d))
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/l.At(j, j))
		}
	}
	return l, nil
}

func refSolveCholesky(l *Matrix, b Vector) Vector {
	n := l.Rows
	y := NewVector(n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	x := NewVector(n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

func refMulVec(m *Matrix, v Vector) Vector {
	out := NewVector(m.Rows)
	for i := range out {
		out[i] = Vector(m.Data[i*m.Cols : (i+1)*m.Cols]).Dot(v)
	}
	return out
}

// propertyShapes returns the (n, d) shapes every property test covers:
// n = 1..3 exhaustively against a few widths, then random shapes.
func propertyShapes(rng *rand.Rand) [][2]int {
	var shapes [][2]int
	for n := 1; n <= 3; n++ {
		for _, d := range []int{1, 2, 5} {
			shapes = append(shapes, [2]int{n, d})
		}
	}
	for i := 0; i < 12; i++ {
		shapes = append(shapes, [2]int{4 + rng.Intn(60), 1 + rng.Intn(12)})
	}
	return shapes
}

func sameBits64(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// sameBits32 checks the float32 instantiation against the float64
// reference rounded once per entry — the "accumulate in float64, round on
// store" contract, exact for kernels whose inputs widen losslessly.
func sameBits32(t *testing.T, what string, got []float32, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(float32(want[i])) {
			t.Fatalf("%s: entry %d = %v, reference %v", what, i, got[i], float32(want[i]))
		}
	}
}

func TestSyrkIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range propertyShapes(rng) {
		x := randMatrix(sh[0], sh[1], rng)
		sameBits64(t, "f64", SyrkInto(nil, x).Data, refSyrk(x).Data)
		x32 := Convert[float32](nil, x)
		sameBits32(t, "f32", SyrkInto(nil, x32).Data, refSyrk(Convert[float64](nil, x32)).Data)
	}
}

func TestPairwiseSquaredDistancesIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range propertyShapes(rng) {
		x := randMatrix(sh[0], sh[1], rng)
		sameBits64(t, "f64", PairwiseSquaredDistancesInto(nil, x).Data, refPairwiseSquaredDistances(x).Data)
		x32 := Convert[float32](nil, x)
		sameBits32(t, "f32", PairwiseSquaredDistancesInto(nil, x32).Data, refPairwiseSquaredDistances(Convert[float64](nil, x32)).Data)
	}
}

func TestRowSquaredNormsMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range propertyShapes(rng) {
		x := randMatrix(sh[0], sh[1], rng)
		sameBits64(t, "f64", RowSquaredNorms(nil, x), refRowSquaredNorms(x))
		x32 := Convert[float32](nil, x)
		sameBits64(t, "f32", RowSquaredNorms(nil, x32), refRowSquaredNorms(Convert[float64](nil, x32)))
	}
}

func TestGatherIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, sh := range propertyShapes(rng) {
		n := sh[0]
		src := randMatrix(n, n, rng)
		rows := rng.Perm(n)[:1+rng.Intn(n)]
		cols := rng.Perm(n)[:1+rng.Intn(n)]
		// Reuse one destination across alternating shapes, as the CV
		// folds do.
		var dst *Matrix
		for pass := 0; pass < 2; pass++ {
			dst = GatherInto(dst, src, rows, RunsOf(cols))
			sameBits64(t, "f64", dst.Data, refGather(src, rows, cols).Data)
			rows = rows[:1]
		}
		src32 := Convert[float32](nil, src)
		sameBits32(t, "f32", GatherInto(nil, src32, rows, RunsOf(cols)).Data, refGather(Convert[float64](nil, src32), rows, cols).Data)
	}
}

func TestCholeskyIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewMatrix(0, 0)
	for _, sh := range propertyShapes(rng) {
		n := sh[0]
		m := randMatrix(n, sh[1], rng)
		a := refSyrk(m)
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += 0.5
		}
		want, err := refCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: reference factor failed: %v", n, err)
		}
		if err := CholeskyInto(l, a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sameBits64(t, "factor", l.Data, want.Data)

		// Without the diagonal shift a rank-deficient Gram (n > d) hits
		// the pivot tolerance: the outcome must match the reference's.
		g := refSyrk(m)
		want, wantErr := refCholesky(g)
		err = CholeskyInto(l, g)
		if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ErrSingular)) {
			t.Fatalf("n=%d d=%d: unshifted factor returned %v, reference %v", n, sh[1], err, wantErr)
		}
		if err == nil {
			sameBits64(t, "unshifted factor", l.Data, want.Data)
		}
	}
}

func TestSolveCholeskyIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var dst Vector
	for _, sh := range propertyShapes(rng) {
		n := sh[0]
		a := refSyrk(randMatrix(n, n, rng))
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += 1
		}
		l, err := refCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := Vector(randMatrix(1, n, rng).Data)
		dst = SolveCholeskyInto(dst, l, b)
		sameBits64(t, "solve", dst, refSolveCholesky(l, b))
	}
}

func TestMulVecIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dst []float64
	for _, sh := range propertyShapes(rng) {
		m := randMatrix(sh[0], sh[1], rng)
		v := Vector(randMatrix(1, sh[1], rng).Data)
		dst = MulVecInto(dst, m, v)
		sameBits64(t, "f64", dst, refMulVec(m, v))
		m32, v32 := Convert[float32](nil, m), Convert[float32](nil, &Matrix{Rows: 1, Cols: len(v), Data: v})
		sameBits64(t, "f32", MulVecInto(nil, m32, v32.Data), refMulVec(Convert[float64](nil, m32), Convert[float64](nil, v32).Data))
	}
}
