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

// refFactorStorage writes Lᵀ over the strict upper triangle of a
// reference factor, which refCholesky and refCholeskyInto leave zero, and
// returns it: the storage CholeskyInto writes, L in the lower triangle
// and diagonal and Lᵀ in the strict upper triangle.
func refFactorStorage[T Float](l *Dense[T]) *Dense[T] {
	n := l.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l.Data[i*n+j] = l.Data[j*n+i]
		}
	}
	return l
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

// TestSyrkIntoMatchesScalarReference checks the packed product against the
// per-pair reference bit for bit on every dispatch path (the dot lanes at
// float64 on the SIMD ones), at both widths, over dotRowInputs, each
// written into a recycled, larger destination full of stale entries that
// must keep those past the result.
func TestSyrkIntoMatchesScalarReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, x := range dotRowInputs(rng) {
			what := fmt.Sprintf("%d×%d", x.Rows, x.Cols)
			got := SyrkInto(stalePacked[float64](x.Rows), x)
			sameBits64(t, what+" f64", got.Data, packUpper(refSyrk(x)))
			staleTailKept(t, what+" f64", got.Data)
			x32 := Convert[float32](nil, x)
			got32 := SyrkInto(stalePacked[float32](x.Rows), x32)
			sameBits32(t, what+" f32", got32.Data, packUpper(refSyrk(Convert[float64](nil, x32))))
			staleTailKept(t, what+" f32", got32.Data)
		}
	})
}

// TestPairwiseSquaredDistancesIntoMatchesScalarReference checks the packed
// upper triangle and diagonal against the per-pair reference bit for bit,
// on every dispatch path, at both widths, over dotRowInputs, each written
// into a recycled, larger destination full of stale entries that must
// keep those past the result. Rows repeated to within an ulp drive the expansion's cancellation below zero, where the clamp
// writes 0, and the ±Inf and NaN features give entries whose expansion is
// NaN, which the clamp passes through.
func TestPairwiseSquaredDistancesIntoMatchesScalarReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for _, x := range dotRowInputs(rng) {
			what := fmt.Sprintf("%d×%d", x.Rows, x.Cols)
			got := PairwiseSquaredDistancesUpperInto(stalePacked[float64](x.Rows), x)
			sameBits64(t, what+" f64", got.Data, packUpper(refPairwiseSquaredDistances(x)))
			staleTailKept(t, what+" f64", got.Data)
			x32 := Convert[float32](nil, x)
			got32 := PairwiseSquaredDistancesUpperInto(stalePacked[float32](x.Rows), x32)
			sameBits32(t, what+" f32", got32.Data, packUpper(refPairwiseSquaredDistances(Convert[float64](nil, x32))))
			staleTailKept(t, what+" f32", got32.Data)
		}
	})
}

// stalePacked returns a packed destination of order n+3 whose whole
// capacity holds staleEntry, for a kernel of order n to reshape and
// overwrite.
func stalePacked[T Float](n int) *Packed[T] {
	p := ReshapePacked[T](nil, n+3)
	full := p.Data[:cap(p.Data)]
	for i := range full {
		full[i] = staleEntry
	}
	return p
}

// defaultNaN is the NaN every invalid operation on amd64 returns (∞ − ∞,
// 0·∞). As the NaN input of the dot-lane tests it makes every NaN in a
// result this one bit pattern: which NaN operand of a commutative add or
// multiply propagates depends on the operand order the compiler picks,
// which Go leaves open (a -race build picks differently), so a NaN
// payload is no property of the arithmetic to pin.
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// staleTailKept fails unless every entry of data's capacity past its
// length still holds staleEntry: a kernel writes only the packed entries
// of its order.
func staleTailKept[T Float](t *testing.T, what string, data []T) {
	t.Helper()
	for i, v := range data[len(data):cap(data)] {
		if v != staleEntry {
			t.Fatalf("%s: wrote %v past the packed entries, at %d", what, v, len(data)+i)
		}
	}
}

// dotRowInputs returns the inputs of the dot-lane tests: every feature
// count d from 0 to 17 at row counts n whose rows (n−i entries in row i
// of X·Xᵀ, one fewer off the distance diagonal) leave every tail from 0
// to 7 after the lanes' wide sweeps (32 and 8 entries on AVX-512, 16 and
// 4 on AVX2). Every other matrix repeats some rows to within an ulp,
// and every third
// carries +Inf, −Inf and NaN features in a few rows.
func dotRowInputs(rng *rand.Rand) []*Matrix {
	var out []*Matrix
	for d := 0; d <= 17; d++ {
		for _, n := range []int{1, 2, 3, 5, 8, 9, 12, 17, 40, 47} {
			x := randMatrix(n, d, rng)
			if len(out)%2 == 1 && n > 2 && d > 0 {
				// Rows far from the origin, the last third a copy of the
				// first nudged by one ulp in one feature: their expansion
				// cancels to a residue of either sign.
				for i := range x.Data {
					x.Data[i] += 1e3
				}
				for r := 0; r < n/3; r++ {
					nudged := x.Data[(n-1-r)*d : (n-r)*d]
					copy(nudged, x.Data[r*d:(r+1)*d])
					k := rng.Intn(d)
					nudged[k] = math.Nextafter(nudged[k], math.Inf(1))
				}
			}
			if len(out)%3 == 2 && d > 0 {
				for r, v := range []float64{math.Inf(1), math.Inf(-1), defaultNaN} {
					if i := rng.Intn(n); r < n {
						x.Data[i*d+rng.Intn(d)] = v
					}
				}
			}
			out = append(out, x)
		}
	}
	return out
}

// packUpper lists the upper triangle of the square matrix m row by row,
// each row from its diagonal: the entries a Packed of m holds, in its
// order.
func packUpper(m *Matrix) []float64 {
	var out []float64
	for i := 0; i < m.Rows; i++ {
		out = append(out, m.Data[i*m.Cols+i:(i+1)*m.Cols]...)
	}
	return out
}

// TestPackedLayout pins Packed's storage order — Row(i) is entries
// (i, i..n−1) from offset i·n − i(i−1)/2 — and that UnpackInto rebuilds
// the symmetric matrix bit for bit, both triangles, into a recycled
// destination and in place from the destination's own leading entries,
// while UpperRows views the same storage.
func TestPackedLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var dst *Matrix
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 9, 37} {
		sym := refSyrk(randMatrix(n, 3, rng))
		p := &Packed[float64]{N: n, Data: packUpper(sym)}
		if len(p.Data) != n*(n+1)/2 {
			t.Fatalf("n=%d: %d packed entries, want %d", n, len(p.Data), n*(n+1)/2)
		}
		dense := sym.UpperRows(nil)
		for i, row := range p.UpperRows(nil) {
			if &row[0] != &p.Data[i*n-i*(i-1)/2] || len(row) != n-i {
				t.Fatalf("n=%d: row %d is not the segment at offset i·n − i(i−1)/2", n, i)
			}
			sameBits64(t, fmt.Sprintf("n=%d row %d", n, i), row, dense[i])
		}
		dst = UnpackInto(dst, p)
		sameBits64(t, fmt.Sprintf("n=%d unpack", n), dst.Data, sym.Data)
		inPlace := NewMatrix(n, n)
		for i := range inPlace.Data {
			inPlace.Data[i] = staleEntry
		}
		copy(inPlace.Data, p.Data)
		own := &Packed[float64]{N: n, Data: inPlace.Data[:len(p.Data)]}
		sameBits64(t, fmt.Sprintf("n=%d unpack in place", n), UnpackInto(inPlace, own).Data, sym.Data)
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
// gather's, and CholeskyInto of it, in place in that buffer, equals the
// reference factor of the full scalar gather in the factor's storage, on
// every dispatch path and at both widths.
func TestGatherLowerIntoMatchesScalarReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		var dst *Matrix
		var dst32, ref32 *Dense[float32]
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
				if err := CholeskyInto(dst, dst); err != nil {
					t.Fatalf("%s: CholeskyInto: %v", what, err)
				}
				sameBits64(t, what+" factor", dst.Data, refFactorStorage(wantL).Data)

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
				if err := CholeskyInto(dst32, dst32); err != nil {
					t.Fatalf("%s: f32 CholeskyInto: %v", what, err)
				}
				for i, v := range refFactorStorage(ref32).Data {
					if math.Float32bits(dst32.Data[i]) != math.Float32bits(v) {
						t.Fatalf("%s f32 factor: entry %d = %v, reference %v", what, i, dst32.Data[i], v)
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
	t.Cleanup(restoreKernelPaths)
	for _, path := range kernelPaths {
		t.Run(path.name, func(t *testing.T) {
			if !path.use() {
				t.Skipf("no %s kernels on this host or in this build", path.name)
			}
			f(t)
		})
	}
}

// kernelPaths are the dispatch paths forEachKernelPath and
// benchKernelPaths run, widest first.
var kernelPaths = []kernelPath{{"avx512", true, true}, {"avx2", true, false}, {"go", false, false}}

type kernelPath struct {
	name         string
	avx2, avx512 bool
}

// detectedAVX2, detectedAVX512 and detectedExp are the dispatch flags as
// the CPU probe set them.
var detectedAVX2, detectedAVX512, detectedExp = useAVX2, useAVX512, useExp

// use sets the dispatch flags to the path and reports whether this host
// and build have it; the exp lanes are AVX2 code, so both SIMD paths run
// them where they were detected.
func (p kernelPath) use() bool {
	if (p.avx2 && !detectedAVX2) || (p.avx512 && !detectedAVX512) {
		return false
	}
	useAVX2, useAVX512, useExp = p.avx2, p.avx512, p.avx2 && detectedExp
	return true
}

// restoreKernelPaths sets the dispatch flags back to the detected ones.
func restoreKernelPaths() {
	useAVX2, useAVX512, useExp = detectedAVX2, detectedAVX512, detectedExp
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
// triangle of a (the SIMD diagonal tiles load the tile's upper entries
// into lanes the scalar finish then overwrites), so a strict upper
// triangle of NaN changes no bit of the factor or the pivot outcome, on
// every dispatch path and at both widths, both into a separate buffer and
// in place (l == a, the NaN upper triangle becoming Lᵀ). refCholesky and
// refCholeskyInto read only the lower triangle too, so cholChecker
// compares against the clean factor.
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
// factorization: a recycled buffer whose entries hold other values, every
// one of which the factor must overwrite.
const staleEntry = -7.25

// cholChecker holds the factor buffers of the Cholesky property test,
// reused across orders as the CV folds reuse theirs.
type cholChecker struct {
	l, inPlace            *Matrix
	l32, inPlace32, ref32 *Dense[float32]
}

func newCholChecker() *cholChecker {
	return &cholChecker{
		l: NewMatrix(0, 0), inPlace: NewMatrix(0, 0),
		l32: NewDense[float32](0, 0), inPlace32: NewDense[float32](0, 0), ref32: NewDense[float32](0, 0),
	}
}

// check factors a at both widths, into a stale buffer and in place in a
// copy of a, and returns the float64 reference's error. The factor's
// storage is L in the lower triangle and diagonal and Lᵀ in the strict
// upper triangle: at float64 it must equal refCholesky's factor in that
// storage bit for bit; at float32 refCholeskyInto's (a factor whose
// entries feed later ones is not the float64 reference rounded once).
// Either width must fail with ErrSingular exactly when its reference does.
func (c *cholChecker) check(t *testing.T, what string, a *Matrix) error {
	t.Helper()
	want, wantErr := refCholesky(a)
	if wantErr == nil {
		refFactorStorage(want)
	}
	n := a.Rows
	*c.l = *Reshape(c.l, n, n)
	for i := range c.l.Data {
		c.l.Data[i] = staleEntry
	}
	*c.inPlace = *Reshape(c.inPlace, n, n)
	copy(c.inPlace.Data, a.Data)
	for _, f := range []struct {
		name string
		l    *Matrix
		a    *Matrix
	}{{"f64", c.l, a}, {"f64 in place", c.inPlace, c.inPlace}} {
		err := CholeskyInto(f.l, f.a)
		if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, ErrSingular)) {
			t.Fatalf("%s: %s factor returned %v, reference %v", what, f.name, err, wantErr)
		}
		if err == nil {
			sameBits64(t, what+" "+f.name, f.l.Data, want.Data)
		}
	}
	a32 := Convert[float32](nil, a)
	wantErr32 := refCholeskyInto(c.ref32, a32)
	if wantErr32 == nil {
		refFactorStorage(c.ref32)
	}
	*c.l32 = *Reshape(c.l32, n, n)
	for i := range c.l32.Data {
		c.l32.Data[i] = staleEntry
	}
	c.inPlace32 = Convert(c.inPlace32, a32)
	for _, f := range []struct {
		name string
		l    *Dense[float32]
		a    *Dense[float32]
	}{{"f32", c.l32, a32}, {"f32 in place", c.inPlace32, c.inPlace32}} {
		err32 := CholeskyInto(f.l, f.a)
		if (err32 == nil) != (wantErr32 == nil) || (err32 != nil && !errors.Is(err32, ErrSingular)) {
			t.Fatalf("%s: %s factor returned %v, reference %v", what, f.name, err32, wantErr32)
		}
		if err32 == nil {
			for i, v := range c.ref32.Data {
				if math.Float32bits(f.l.Data[i]) != math.Float32bits(v) {
					t.Fatalf("%s %s: entry %d = %v, reference %v", what, f.name, i, f.l.Data[i], v)
				}
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

// TestSolveCholeskyIntoMatchesScalarReference feeds the solve the
// reference factor in CholeskyInto's storage (Lᵀ in the strict upper
// triangle, which the backward substitution reads) and pins its solution
// to the scalar substitution loops, which read L, at both widths.
func TestSolveCholeskyIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var dst Vector
	var dst32 []float32
	for _, sh := range tiledRowShapes(rng) {
		n := sh[0]
		l, l32 := refSolveSystem(n, rng)
		b := Vector(randMatrix(1, n, rng).Data)
		dst = SolveCholeskyInto(dst, l, b)
		sameBits64(t, fmt.Sprintf("n=%d f64", n), dst, refSolveCholesky(l, b))
		// The float32 solve on the float32 factor of the same system.
		b32 := Convert[float32](nil, &Matrix{Rows: 1, Cols: n, Data: b}).Data
		dst32 = SolveCholeskyInto(dst32, l32, b32)
		for i, v := range refSolveCholeskyInto(l32, b32) {
			if math.Float32bits(dst32[i]) != math.Float32bits(v) {
				t.Fatalf("n=%d f32: entry %d = %v, reference %v", n, i, dst32[i], v)
			}
		}
	}
}

// refSolveSystem returns a random SPD system of order n with its
// reference factors, at float64 and float32, in CholeskyInto's storage.
func refSolveSystem(n int, rng *rand.Rand) (l *Matrix, l32 *Dense[float32]) {
	a := refSyrk(randMatrix(n, n, rng))
	a.AddScaledDiag(1)
	l, err := refCholesky(a)
	if err != nil {
		panic(err)
	}
	l32 = NewDense[float32](0, 0)
	if err := refCholeskyInto(l32, Convert[float32](nil, a)); err != nil {
		panic(err)
	}
	return refFactorStorage(l), refFactorStorage(l32)
}

// TestSolveCholeskyPairIntoMatchesScalarReference pins each system of a
// pair to the scalar substitution loops bit for bit, at both widths: equal
// orders and orders that differ by one (either system the larger, as CV
// folds of n/k and n/k+1 rows pair up), over every 4-row tail of the
// forward substitution after zero to two sweeps, and fold orders of the fit
// workloads. The solution buffers are recycled and hold stale values.
func TestSolveCholeskyPairIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var pairs [][2]int
	for n := 1; n <= 13; n++ {
		pairs = append(pairs, [2]int{n, n}, [2]int{n, n + 1}, [2]int{n + 1, n})
	}
	pairs = append(pairs, [2]int{90, 90}, [2]int{90, 91}, [2]int{150, 149})
	dst0, dst1 := Vector{staleEntry}, Vector{staleEntry, staleEntry}
	var dst32a, dst32b []float32
	for _, p := range pairs {
		what := fmt.Sprintf("orders %d,%d", p[0], p[1])
		l0, l320 := refSolveSystem(p[0], rng)
		l1, l321 := refSolveSystem(p[1], rng)
		b0 := Vector(randMatrix(1, p[0], rng).Data)
		b1 := Vector(randMatrix(1, p[1], rng).Data)
		dst0, dst1 = SolveCholeskyPairInto(dst0, l0, b0, dst1, l1, b1)
		sameBits64(t, what+" f64 first", dst0, refSolveCholesky(l0, b0))
		sameBits64(t, what+" f64 second", dst1, refSolveCholesky(l1, b1))

		b320 := Convert[float32](nil, &Matrix{Rows: 1, Cols: p[0], Data: b0}).Data
		b321 := Convert[float32](nil, &Matrix{Rows: 1, Cols: p[1], Data: b1}).Data
		dst32a, dst32b = SolveCholeskyPairInto(dst32a, l320, b320, dst32b, l321, b321)
		for k, got := range [][]float32{dst32a, dst32b} {
			want := refSolveCholeskyInto([]*Dense[float32]{l320, l321}[k], [][]float32{b320, b321}[k])
			for i, v := range want {
				if math.Float32bits(got[i]) != math.Float32bits(v) {
					t.Fatalf("%s f32 system %d: entry %d = %v, reference %v", what, k, i, got[i], v)
				}
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

// TestGatherMulVecIntoMatchesScalarReference pins the gathered product to
// MulVecInto's reference on the materialized gather, bit for bit, at both
// widths: every row count through three 4-row sweeps and random shapes,
// rows and columns in random order, and a source carrying NaN and ±Inf so
// that special values take the reference's exact path.
func TestGatherMulVecIntoMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}
	var dst []float64
	for _, sh := range tiledRowShapes(rng) {
		nr, nc := sh[0], sh[1]
		n := max(nr, nc) + rng.Intn(5)
		src := randMatrix(n, n, rng)
		for i := 0; i < n; i += 1 + rng.Intn(7) {
			src.Data[i*n+rng.Intn(n)] = special[rng.Intn(len(special))]
		}
		rows := rng.Perm(n)[:nr]
		cols := rng.Perm(n)[:nc]
		v := Vector(randMatrix(1, nc, rng).Data)
		dst = GatherMulVecInto(dst, src, rows, cols, v)
		sameBits64(t, "f64", dst, refMulVec(refGather(src, rows, cols), v))
		src32 := Convert[float32](nil, src)
		v32 := Convert[float32](nil, &Matrix{Rows: 1, Cols: nc, Data: v})
		sameBits64(t, "f32", GatherMulVecInto(nil, src32, rows, cols, v32.Data),
			refMulVec(refGather(Convert[float64](nil, src32), rows, cols), Convert[float64](nil, v32).Data))
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
	routines := map[string]bool{"cpuFeatures": false, "cholTileAVX2": false, "cholPanelAVX2": false, "cholTileAVX512": false, "cholPanelAVX512": false, "syrkTRowAVX2": false, "dotRowAVX2": false, "dotRowAVX512": false, "accScaledAVX2": false, "accProductAVX2": false, "expLanesAVX2": false}
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
