package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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

// refCholeskyInto is CholeskyInto's scalar column loop as it stood before
// the loop was register-tiled, generic over Float: the reference of the
// float32 factor.
func refCholeskyInto[T Float](l, a *Dense[T]) error {
	n := a.Rows
	tol := pivotTol[T]()
	*l = *Reshape(l, n, n)
	for j := 0; j < n; j++ {
		rowJ := l.Data[j*n : (j+1)*n]
		d := float64(a.Data[j*n+j])
		for _, v := range rowJ[:j] {
			d -= float64(v) * float64(v)
		}
		if d <= tol {
			return ErrSingular
		}
		rowJ[j] = T(math.Sqrt(d))
		piv := float64(rowJ[j])
		for i := j + 1; i < n; i++ {
			rowI := l.Data[i*n : (i+1)*n]
			s := float64(a.Data[i*n+j])
			for k, v := range rowI[:j] {
				s -= float64(v) * float64(rowJ[k])
			}
			rowI[j] = T(s / piv)
		}
		for i := j + 1; i < n; i++ {
			rowJ[i] = 0
		}
	}
	return nil
}

// refSolveCholeskyInto is SolveCholeskyInto's substitution loops as they
// stood before the forward substitution was register-tiled, generic over
// Float: the reference of the float32 solve (at float64 it is
// refSolveCholesky's arithmetic).
func refSolveCholeskyInto[T Float](l *Dense[T], b []T) []T {
	n := l.Rows
	x := make([]T, n)
	for i := 0; i < n; i++ {
		s := float64(b[i])
		for k := 0; k < i; k++ {
			s -= float64(l.Data[i*n+k]) * float64(x[k])
		}
		x[i] = T(s / float64(l.Data[i*n+i]))
	}
	for i := n - 1; i >= 0; i-- {
		s := float64(x[i])
		for k := i + 1; k < n; k++ {
			s -= float64(l.Data[k*n+i]) * float64(x[k])
		}
		x[i] = T(s / float64(l.Data[i*n+i]))
	}
	return x
}

// refSyrkT is SyrkTInto's row-streaming loop as it stood before the AVX2
// row update, the reference of both dispatch paths.
func refSyrkT(x *Matrix) *Matrix {
	n, c := x.Rows, x.Cols
	dst := NewMatrix(c, c)
	for r := 0; r < n; r++ {
		row := x.Data[r*c : (r+1)*c]
		for i, vi := range row {
			if vi == 0 {
				continue
			}
			di := dst.Data[i*c : (i+1)*c]
			for j := i; j < c; j++ {
				di[j] += vi * row[j]
			}
		}
	}
	for i := 0; i < c; i++ {
		for j := i + 1; j < c; j++ {
			dst.Data[j*c+i] = dst.Data[i*c+j]
		}
	}
	return dst
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

// TestPairwiseSquaredDistancesIntoMatchesScalarReference checks the upper
// triangle and diagonal against the per-pair reference bit for bit, at
// both widths and at every column tail of the four-column tiles, and that
// the strict lower triangle of a recycled destination is left untouched.
func TestPairwiseSquaredDistancesIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range tiledRowShapes(rng) {
		x := randMatrix(sh[0], sh[1], rng)
		n := sh[0]
		want := upperWithLower(refPairwiseSquaredDistances(x).Data, n, staleEntry)
		got := NewMatrix(n, n)
		for i := range got.Data {
			got.Data[i] = staleEntry
		}
		sameBits64(t, "f64", PairwiseSquaredDistancesUpperInto(got, x).Data, want)
		x32 := Convert[float32](nil, x)
		got32 := Convert[float32](nil, got)
		want32 := upperWithLower(refPairwiseSquaredDistances(Convert[float64](nil, x32)).Data, n, staleEntry)
		sameBits32(t, "f32", PairwiseSquaredDistancesUpperInto(got32, x32).Data, want32)
	}
}

// upperWithLower overwrites the strict lower triangle of the n×n matrix
// data with v and returns data.
func upperWithLower(data []float64, n int, v float64) []float64 {
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			data[i*n+j] = v
		}
	}
	return data
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
			dst = GatherInto(dst, src, rows, cols)
			sameBits64(t, "f64", dst.Data, refGather(src, rows, cols).Data)
			rows = rows[:1]
		}
		src32 := Convert[float32](nil, src)
		sameBits32(t, "f32", GatherInto(nil, src32, rows, cols).Data, refGather(Convert[float64](nil, src32), rows, cols).Data)
	}
}

// refAssemble is the candidate-Gram assembly as it stood before it went
// upper-triangle only: every entry of the n×n result accumulated across
// the blocks in order, in float64 — 0 then += w·g for the sum, 1 then
// *= g for the product.
func refAssemble(blocks []*Matrix, product bool) *Matrix {
	n := blocks[0].Rows
	out := NewMatrix(n, n)
	w := 1 / float64(len(blocks))
	for i := range out.Data {
		acc := 0.0
		if product {
			acc = 1
		}
		for _, g := range blocks {
			if product {
				acc *= g.Data[i]
			} else {
				acc += w * g.Data[i]
			}
		}
		out.Data[i] = acc
	}
	return out
}

// assembleUpper is the assembly as internal/kernel runs it: each row
// segment [i, n) of the upper triangle accumulated across the blocks
// through AccumulateScaled or AccumulateProduct, in place at float64 and
// in a float64 row rounded once per entry at float32, then MirrorUpper.
func assembleUpper[T Float](dst *Dense[T], blocks []*Dense[T], product bool) {
	n := blocks[0].Rows
	row := make([]float64, n)
	w := 1 / float64(len(blocks))
	for i := 0; i < n; i++ {
		acc := row[:n-i]
		for j := range acc {
			acc[j] = 0
			if product {
				acc[j] = 1
			}
		}
		for _, g := range blocks {
			if product {
				AccumulateProduct(acc, g.Data[i*n+i:(i+1)*n])
			} else {
				AccumulateScaled(acc, w, g.Data[i*n+i:(i+1)*n])
			}
		}
		for j, v := range acc {
			dst.Data[i*n+i+j] = T(v)
		}
	}
	MirrorUpper(dst)
}

// TestAccumulateMatchesScalarReference pins the upper-triangle assembly —
// the lane accumulate kernels plus the mirror — to the full entry-by-entry
// loop, on both dispatch paths, at both widths, for the sum and product
// combiners over 1–18 symmetric blocks (as every block formula stores
// them), at orders below, at and past the 4- and 8-entry lane blocks and
// the 32-entry mirror tile.
func TestAccumulateMatchesScalarReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(10))
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 63, 64, 65, 130} {
			for nb := 1; nb <= 18; nb++ {
				blocks := make([]*Matrix, nb)
				blocks32 := make([]*Dense[float32], nb)
				for b := range blocks {
					// A Gram-like symmetric block with entries near 1, so
					// an 18-fold product stays in range.
					blocks[b] = refSyrk(randMatrix(n, 3, rng))
					for i := range blocks[b].Data {
						blocks[b].Data[i] = 1 + blocks[b].Data[i]/16
					}
					blocks32[b] = Convert[float32](nil, blocks[b])
				}
				for _, product := range []bool{false, true} {
					what := fmt.Sprintf("n=%d blocks=%d product=%v", n, nb, product)
					dst := NewMatrix(n, n)
					assembleUpper(dst, blocks, product)
					sameBits64(t, what+" f64", dst.Data, refAssemble(blocks, product).Data)
					wide := make([]*Matrix, nb)
					for b := range wide {
						wide[b] = Convert[float64](nil, blocks32[b])
					}
					dst32 := NewDense[float32](n, n)
					assembleUpper(dst32, blocks32, product)
					sameBits32(t, what+" f32", dst32.Data, refAssemble(wide, product).Data)
				}
			}
		}
	})
}

// TestGatherLowerIntoMatchesScalarReference pins the fold system's path
// into the factor: the lower triangle GatherLowerInto writes over a
// recycled buffer whose strict upper triangle holds NaN equals the scalar
// gather's, and CholeskyInto of it equals the reference factor of the
// full scalar gather, on both dispatch paths and at both widths.
func TestGatherLowerIntoMatchesScalarReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		var dst, l *Matrix
		var dst32, l32, ref32 *Dense[float32]
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 63, 64, 65, 130} {
			src := refSyrk(randMatrix(n, n+2, rng))
			src.AddScaledDiag(float64(n))
			src32 := Convert[float32](nil, src)
			for _, m := range []int{n, (n + 1) / 2, 1 + rng.Intn(n)} {
				idx := rng.Perm(n)[:m]
				what := fmt.Sprintf("n=%d m=%d", n, m)
				want := refGather(src, idx, idx)
				dst = Reshape(dst, m, m)
				for i := range dst.Data {
					dst.Data[i] = math.NaN()
				}
				dst = GatherLowerInto(dst, src, idx)
				for i := 0; i < m; i++ {
					sameBits64(t, what+" lower row", dst.Data[i*m:i*m+i+1], want.Data[i*m:i*m+i+1])
				}
				wantL, err := refCholesky(want)
				if err != nil {
					t.Fatalf("%s: reference factor: %v", what, err)
				}
				l = Reshape(l, m, m)
				if err := CholeskyInto(l, dst); err != nil {
					t.Fatalf("%s: CholeskyInto: %v", what, err)
				}
				sameBits64(t, what+" factor", l.Data, wantL.Data)

				dst32 = Reshape(dst32, m, m)
				for i := range dst32.Data {
					dst32.Data[i] = float32(math.NaN())
				}
				dst32 = GatherLowerInto(dst32, src32, idx)
				want32 := Convert[float32](nil, refGather(Convert[float64](nil, src32), idx, idx))
				ref32 = Reshape(ref32, m, m)
				if err := refCholeskyInto(ref32, want32); err != nil {
					t.Fatalf("%s: f32 reference factor: %v", what, err)
				}
				l32 = Reshape(l32, m, m)
				if err := CholeskyInto(l32, dst32); err != nil {
					t.Fatalf("%s: f32 CholeskyInto: %v", what, err)
				}
				for i, v := range ref32.Data {
					if math.Float32bits(l32.Data[i]) != math.Float32bits(v) {
						t.Fatalf("%s f32 factor: entry %d = %v, reference %v", what, i, l32.Data[i], v)
					}
				}
			}
		}
	})
}

// cholTileShapes are the orders the Cholesky property test adds to the
// random shapes: every order below two 8-column blocks, orders on either
// side of larger multiples of eight, and fold orders of the fit workloads
// (90, 150, 450) with their neighbours, so both the Go loop's row groups
// and the SIMD paths' column blocks meet every tail length after full
// blocks: 0–3 after 4-column blocks, 0–7 after 8-column ones.
var cholTileShapes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 24, 25, 63, 64, 65, 90, 130, 150, 448, 449, 450, 451, 452, 453, 454, 455, 456, 457}

// forEachKernelPath runs f once per dispatch path of the SIMD kernels:
// through the AVX-512 and AVX2 kernels (each skipped when this host or
// build lacks it), then through the Go loops, restoring the detected paths
// afterwards. The exp lanes are AVX2 code: both SIMD paths run them where
// they were detected, and the Go path runs scalar math.Exp.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	detected2, detected512, detectedExp := useAVX2, useAVX512, useExp
	t.Cleanup(func() { useAVX2, useAVX512, useExp = detected2, detected512, detectedExp })
	for _, path := range []struct {
		name         string
		avx2, avx512 bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"go", false, false}} {
		t.Run(path.name, func(t *testing.T) {
			if (path.avx2 && !detected2) || (path.avx512 && !detected512) {
				t.Skipf("no %s kernels on this host or in this build", path.name)
			}
			useAVX2, useAVX512, useExp = path.avx2, path.avx512, path.avx2 && detectedExp
			f(t)
		})
	}
}

func TestCholeskyIntoMatchesScalarReference(t *testing.T) {
	forEachKernelPath(t, testCholeskyIntoMatchesScalarReference)
}

func testCholeskyIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := propertyShapes(rng)
	for _, n := range cholTileShapes {
		shapes = append(shapes, [2]int{n, 1 + rng.Intn(12)})
	}
	ck := newCholChecker()
	for _, sh := range shapes {
		n := sh[0]
		m := randMatrix(n, sh[1], rng)
		a := refSyrk(m)
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += 0.5
		}
		if err := ck.check(t, fmt.Sprintf("n=%d shifted", n), a); err != nil {
			t.Fatalf("n=%d: reference factor failed: %v", n, err)
		}
		// Without the diagonal shift a rank-deficient Gram (n > d) hits
		// the pivot tolerance: the outcome must match the reference's.
		ck.check(t, fmt.Sprintf("n=%d d=%d unshifted", n, sh[1]), refSyrk(m))
	}
	// A zeroed diagonal entry makes pivot p the first to fail. Over every
	// p of these orders the failing pivot lands at every offset of a 4-row
	// group and of a 4- and an 8-column block, after zero and after several
	// full blocks, and in the scalar tail.
	for _, n := range []int{9, 17, 22, 90} {
		for p := 0; p < n; p++ {
			a := refSyrk(randMatrix(n, n, rng))
			for i := 0; i < n; i++ {
				a.Data[i*n+i] += 0.5
			}
			a.Data[p*n+p] = 0
			if err := ck.check(t, fmt.Sprintf("n=%d pivot %d", n, p), a); !errors.Is(err, ErrSingular) {
				t.Fatalf("n=%d: reference factor with pivot %d zeroed returned %v, want ErrSingular", n, p, err)
			}
		}
	}
}

// TestCholeskyIntoUpperNaNMatchesScalarReference pins the precondition
// the fold ridge solve rests on: CholeskyInto reads only the lower
// triangle of a (the AVX2 diagonal tile loads the tile's upper entries
// into lanes it then discards), so a strict upper triangle of NaN changes
// no bit of the factor or the pivot outcome, on both dispatch paths and
// at both widths. refCholesky and refCholeskyInto read only the lower
// triangle too, so cholChecker compares against the clean factor.
func TestCholeskyIntoUpperNaNMatchesScalarReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		ck := newCholChecker()
		for _, n := range cholTileShapes {
			for _, shift := range []float64{0.5, 0} {
				a := refSyrk(randMatrix(n, 1+rng.Intn(12), rng))
				a.AddScaledDiag(shift)
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						a.Data[i*n+j] = math.NaN()
					}
				}
				ck.check(t, fmt.Sprintf("n=%d shift=%v upper NaN", n, shift), a)
			}
		}
	})
}

// staleEntry is what cholChecker writes into every factor buffer before a
// factorization: a recycled buffer whose strict upper triangle holds
// non-zero values, which the factor (and the AVX2 path's transposed copy
// kept there) must leave cleared.
const staleEntry = -7.25

// cholChecker holds the factor buffers of the Cholesky property test,
// reused across orders as the CV folds reuse theirs.
type cholChecker struct {
	l          *Matrix
	l32, ref32 *Dense[float32]
}

func newCholChecker() *cholChecker {
	return &cholChecker{l: NewMatrix(0, 0), l32: NewDense[float32](0, 0), ref32: NewDense[float32](0, 0)}
}

// check factors a at both widths and returns the float64 reference's
// error. At float64 the factor must equal refCholesky's bit for bit; at
// float32 it must equal refCholeskyInto's (a factor whose entries feed
// later ones is not the float64 reference rounded once). Either width
// must fail with ErrSingular exactly when its reference does.
func (c *cholChecker) check(t *testing.T, what string, a *Matrix) error {
	t.Helper()
	want, wantErr := refCholesky(a)
	n := a.Rows
	*c.l = *Reshape(c.l, n, n)
	for i := range c.l.Data {
		c.l.Data[i] = staleEntry
	}
	err := CholeskyInto(c.l, a)
	if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ErrSingular)) {
		t.Fatalf("%s: f64 factor returned %v, reference %v", what, err, wantErr)
	}
	if err == nil {
		sameBits64(t, what+" f64", c.l.Data, want.Data)
	}
	a32 := Convert[float32](nil, a)
	wantErr32 := refCholeskyInto(c.ref32, a32)
	*c.l32 = *Reshape(c.l32, n, n)
	for i := range c.l32.Data {
		c.l32.Data[i] = staleEntry
	}
	err32 := CholeskyInto(c.l32, a32)
	if (err32 == nil) != (wantErr32 == nil) || (err32 != nil && !errors.Is(err32, ErrSingular)) {
		t.Fatalf("%s: f32 factor returned %v, reference %v", what, err32, wantErr32)
	}
	if err32 == nil {
		for i, v := range c.ref32.Data {
			if math.Float32bits(c.l32.Data[i]) != math.Float32bits(v) {
				t.Fatalf("%s f32: entry %d = %v, reference %v", what, i, c.l32.Data[i], v)
			}
		}
	}
	return wantErr
}

// tiledRowShapes adds to the random property shapes every row count up to
// three 4-row sweeps, so the register-tiled loops meet every tail length
// 0–3 after zero, one and two full sweeps.
func tiledRowShapes(rng *rand.Rand) [][2]int {
	shapes := propertyShapes(rng)
	for n := 4; n <= 13; n++ {
		shapes = append(shapes, [2]int{n, 1 + rng.Intn(12)})
	}
	return shapes
}

func TestSolveCholeskyIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var dst Vector
	var dst32 []float32
	for _, sh := range tiledRowShapes(rng) {
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
		sameBits64(t, fmt.Sprintf("n=%d f64", n), dst, refSolveCholesky(l, b))
		// The float32 solve on the float32 factor of the same system.
		l32 := NewDense[float32](0, 0)
		if err := refCholeskyInto(l32, Convert[float32](nil, a)); err != nil {
			t.Fatal(err)
		}
		b32 := Convert[float32](nil, &Matrix{Rows: 1, Cols: n, Data: b}).Data
		dst32 = SolveCholeskyInto(dst32, l32, b32)
		for i, v := range refSolveCholeskyInto(l32, b32) {
			if math.Float32bits(dst32[i]) != math.Float32bits(v) {
				t.Fatalf("n=%d f32: entry %d = %v, reference %v", n, i, dst32[i], v)
			}
		}
	}
}

func TestMulVecIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dst []float64
	for _, sh := range tiledRowShapes(rng) {
		m := randMatrix(sh[0], sh[1], rng)
		v := Vector(randMatrix(1, sh[1], rng).Data)
		dst = MulVecInto(dst, m, v)
		sameBits64(t, "f64", dst, refMulVec(m, v))
		m32, v32 := Convert[float32](nil, m), Convert[float32](nil, &Matrix{Rows: 1, Cols: len(v), Data: v})
		sameBits64(t, "f32", MulVecInto(nil, m32, v32.Data), refMulVec(Convert[float64](nil, m32), Convert[float64](nil, v32).Data))
	}
}

func TestSyrkTIntoMatchesScalarReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		shapes := propertyShapes(rng)
		// Widths below, at and past the 4-lane vector with every tail.
		for _, c := range []int{4, 5, 6, 7, 8, 16, 17, 33, 64, 67} {
			shapes = append(shapes, [2]int{1 + rng.Intn(40), c})
		}
		var dst *Matrix
		for _, sh := range shapes {
			x := randMatrix(sh[0], sh[1], rng)
			// Zeros of both signs exercise the zero-row skip, and a rare
			// infinity makes it observable: 0·∞ would be NaN.
			for i := range x.Data {
				switch rng.Intn(40) {
				case 0, 1, 2, 3:
					x.Data[i] = 0
				case 4, 5, 6:
					x.Data[i] = math.Copysign(0, -1)
				case 7:
					x.Data[i] = math.Inf(1 - 2*rng.Intn(2))
				}
			}
			// A reused destination of another shape, as the primal solve
			// reuses its normal matrix.
			dst = SyrkTInto(dst, x)
			sameBits64(t, fmt.Sprintf("n=%d c=%d", sh[0], sh[1]), dst.Data, refSyrkT(x).Data)
		}
	})
}

// expFusedOps is the fused-operation set of math.Exp's FMA branch that
// expLanesAVX2 replays in packed form: two VFNMADD231 in the argument
// reduction, seven VFMADD213 in the Taylor polynomial and one in the last
// square step. Every other instruction there rounds once per operation.
var expFusedOps = map[string]int{"VFNMADD231PD": 2, "VFMADD213PD": 8}

// TestAsmAudit holds the module's assembly to four rules, one subtest
// each:
//   - placement: assembly lives in this package only;
//   - fused-ops: fused multiply-adds appear only in expLanesAVX2, exactly
//     expFusedOps there (every other kernel replays Go loops that round
//     twice, so a fused operation would break their bit-identity);
//   - probe: CPUID and XGETBV appear only in cpuFeatures, the one CPU
//     probe behind the one set of dispatch flags;
//   - routines: every routine the Go side declares is defined.
//
// Lines are attributed to the TEXT routine they follow, and lines of a
// #define body to no routine, so a macro may hold neither a fused
// operation nor a probe.
func TestAsmAudit(t *testing.T) {
	root := filepath.Join("..", "..")
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".s") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no assembly files found in the module")
	}
	routines := map[string]bool{"cpuFeatures": false, "cholTileAVX2": false, "cholPanelAVX2": false, "cholTileAVX512": false, "cholPanelAVX512": false, "syrkTRowAVX2": false, "accScaledAVX2": false, "accProductAVX2": false, "expLanesAVX2": false}
	fused := map[string]int{}
	var placement, fusedOps, probe, undefined []string
	for _, f := range files {
		if filepath.Dir(f) != filepath.Join(root, "internal", "linalg") {
			placement = append(placement, fmt.Sprintf("%s: assembly outside internal/linalg", f))
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		routine, inMacro := "", false
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if name, ok := strings.CutPrefix(code, "TEXT ·"); ok {
				routine, _, _ = strings.Cut(name, "(")
				if _, ok := routines[routine]; ok {
					routines[routine] = true
				}
			}
			where := routine
			if strings.HasPrefix(code, "#define") || inMacro {
				where = "a macro"
			}
			inMacro = strings.HasSuffix(strings.TrimSpace(code), "\\")
			for _, tok := range strings.Fields(strings.ToUpper(strings.ReplaceAll(code, ";", " "))) {
				switch {
				case tok == "CPUID" || tok == "XGETBV":
					if where != "cpuFeatures" {
						probe = append(probe, fmt.Sprintf("%s:%d: %s in %s, outside cpuFeatures", f, i+1, tok, where))
					}
				case strings.HasPrefix(tok, "VFMADD") || strings.HasPrefix(tok, "VFMSUB") || strings.HasPrefix(tok, "VFNMADD") || strings.HasPrefix(tok, "VFNMSUB"):
					if _, ok := expFusedOps[tok]; !ok || where != "expLanesAVX2" {
						fusedOps = append(fusedOps, fmt.Sprintf("%s:%d: fused operation %s in %s, outside math.Exp's FMA branch set in expLanesAVX2", f, i+1, tok, where))
						continue
					}
					fused[tok]++
				}
			}
		}
	}
	for op, want := range expFusedOps {
		if fused[op] != want {
			fusedOps = append(fusedOps, fmt.Sprintf("expLanesAVX2: %d %s, want %d", fused[op], op, want))
		}
	}
	for name, defined := range routines {
		if !defined {
			undefined = append(undefined, fmt.Sprintf("routine %s is not defined in the scanned assembly", name))
		}
	}
	for _, rule := range []struct {
		name     string
		findings []string
	}{{"placement", placement}, {"fused-ops", fusedOps}, {"probe", probe}, {"routines", undefined}} {
		t.Run(rule.name, func(t *testing.T) {
			for _, f := range rule.findings {
				t.Error(f)
			}
		})
	}
}
