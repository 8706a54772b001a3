// Float32 numeric primitives: the storage type and the SYRK / distance /
// Cholesky / substitution kernels of the Float32 backend. Storage is
// float32 — halving the memory traffic of the Gram-bound scoring loop is
// the backend's entire win — while every inner accumulation runs in
// float64, so rounding enters only at the final store. This keeps the
// elementwise error of an assembled Gram within the backend's tolerance
// contract (|K32 − K64| ≤ 1e-4 · max(1, |K64|)) instead of compounding
// across n-term sums.
package engine

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Tol32 is the Float32 backend's documented elementwise tolerance contract
// against the Float64 reference: every assembled Gram entry satisfies
// |K32 − K64| ≤ Tol32 · max(1, |K64|). The equivalence suites assert it.
//
//iotml:allow unusedexport -- the documented f32 tolerance contract; its own package's equivalence suites are its readers
const Tol32 = 1e-4

// M32 is a dense row-major float32 matrix — the storage type of the
// Float32 backend.
type M32 struct {
	Rows, Cols int
	Data       []float32 // len Rows*Cols, row-major
}

// NewM32 returns a zero float32 matrix of the given shape.
func NewM32(rows, cols int) *M32 {
	if rows < 0 || cols < 0 {
		panic("engine: negative matrix dimension")
	}
	return &M32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns element (i, j).
func (m *M32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *M32) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Reshape32 returns m resized to r×c, reusing m's backing storage whenever
// its capacity suffices — the float32 twin of linalg.Reshape. Contents
// after a reshape are unspecified.
func Reshape32(m *M32, r, c int) *M32 {
	if r < 0 || c < 0 {
		panic("engine: negative matrix dimension")
	}
	if m == nil {
		return NewM32(r, c)
	}
	if m.Rows == r && m.Cols == c {
		return m
	}
	if cap(m.Data) < r*c {
		return NewM32(r, c)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:r*c]
	return m
}

// From64 widens-then-truncates a float64 matrix into dst (reshaped) and
// returns it: one float32 rounding per entry.
func From64(dst *M32, src *linalg.Matrix) *M32 {
	dst = Reshape32(dst, src.Rows, src.Cols)
	for i, v := range src.Data {
		dst.Data[i] = float32(v)
	}
	return dst
}

// Widen converts a float32 matrix into the float64 matrix dst (reshaped via
// linalg.Reshape) and returns it — exact, float32 embeds in float64.
func Widen(dst *linalg.Matrix, src *M32) *linalg.Matrix {
	dst = linalg.Reshape(dst, src.Rows, src.Cols)
	for i, v := range src.Data {
		dst.Data[i] = float64(v)
	}
	return dst
}

// Syrk32 computes X·Xᵀ over float32 rows with float64 accumulation,
// writing float32 results into dst (reshaped) and returning it. Upper
// triangle computed, lower mirrored — the f32 twin of linalg.SyrkInto.
func Syrk32(dst, x *M32) *M32 {
	n, d := x.Rows, x.Cols
	dst = Reshape32(dst, n, n)
	for i := 0; i < n; i++ {
		ri := x.Data[i*d : (i+1)*d]
		for j := i; j < n; j++ {
			rj := x.Data[j*d : (j+1)*d]
			s := 0.0
			for k, v := range ri {
				s += float64(v) * float64(rj[k])
			}
			f := float32(s)
			dst.Data[i*n+j] = f
			dst.Data[j*n+i] = f
		}
	}
	return dst
}

// PairwiseSquaredDistances32 computes ‖xᵢ − xⱼ‖² for all row pairs via the
// ‖xᵢ‖² + ‖xⱼ‖² − 2⟨xᵢ,xⱼ⟩ expansion with float64 accumulation, writing
// float32 results into dst (reshaped) and returning it. Cancellation
// residue is clamped at zero and the diagonal is exactly zero.
func PairwiseSquaredDistances32(dst, x *M32) *M32 {
	n, d := x.Rows, x.Cols
	dst = Reshape32(dst, n, n)
	norms := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for _, v := range x.Data[i*d : (i+1)*d] {
			s += float64(v) * float64(v)
		}
		norms[i] = s
	}
	for i := 0; i < n; i++ {
		ri := x.Data[i*d : (i+1)*d]
		dst.Data[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			rj := x.Data[j*d : (j+1)*d]
			dot := 0.0
			for k, v := range ri {
				dot += float64(v) * float64(rj[k])
			}
			v := norms[i] + norms[j] - 2*dot
			if v < 0 {
				v = 0
			}
			f := float32(v)
			dst.Data[i*n+j] = f
			dst.Data[j*n+i] = f
		}
	}
	return dst
}

// Gather32 extracts the submatrix src[rows[i]][cols...] into dst (reshaped)
// and returns it — the float32 twin of linalg.GatherInto, consuming the
// same precomputed run descriptors (linalg.RunsOf) as the CV fast path.
func Gather32(dst, src *M32, rows []int, cols []linalg.Run) *M32 {
	nc := 0
	for _, r := range cols {
		nc += r.Len
	}
	dst = Reshape32(dst, len(rows), nc)
	for i, r := range rows {
		srcRow := src.Data[r*src.Cols : (r+1)*src.Cols]
		dstRow := dst.Data[i*nc : (i+1)*nc]
		pos := 0
		for _, run := range cols {
			if run.Len == 1 {
				dstRow[pos] = srcRow[run.Start]
				pos++
				continue
			}
			copy(dstRow[pos:pos+run.Len], srcRow[run.Start:run.Start+run.Len])
			pos += run.Len
		}
	}
	return dst
}

// Cholesky32 factors A = L·Lᵀ into the caller-owned float32 matrix l
// (reshaped), accumulating every subtraction in float64 and rounding each
// factor entry once at its store. The pivot tolerance is 1e-7 — scaled to
// float32 precision the way linalg.CholeskyInto's 1e-14 is scaled to
// float64 — and a failing pivot returns linalg.ErrSingular so the
// heavier-ridge fallback schedule composes identically to the f64 path.
// l must not alias a; its contents are unspecified after an error.
func Cholesky32(l, a *M32) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("engine: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	*l = *Reshape32(l, n, n)
	for j := 0; j < n; j++ {
		rowJ := l.Data[j*n : (j+1)*n]
		d := float64(a.Data[j*n+j])
		for _, v := range rowJ[:j] {
			d -= float64(v) * float64(v)
		}
		if d <= 1e-7 {
			return linalg.ErrSingular
		}
		rowJ[j] = float32(math.Sqrt(d))
		piv := float64(rowJ[j])
		for i := j + 1; i < n; i++ {
			rowI := l.Data[i*n : (i+1)*n]
			s := float64(a.Data[i*n+j])
			for k, v := range rowI[:j] {
				s -= float64(v) * float64(rowJ[k])
			}
			rowI[j] = float32(s / piv)
		}
		for i := j + 1; i < n; i++ {
			rowJ[i] = 0
		}
	}
	return nil
}

// SolveCholesky32 solves A·x = b given the float32 Cholesky factor L of A,
// by forward then backward substitution with float64 accumulation, writing
// the float32 solution into dst (capacity-reused) and returning it.
// dst must not alias b.
func SolveCholesky32(dst []float32, l *M32, b []float32) []float32 {
	n := l.Rows
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		s := float64(b[i])
		for k := 0; k < i; k++ {
			s -= float64(l.Data[i*n+k]) * float64(dst[k])
		}
		dst[i] = float32(s / float64(l.Data[i*n+i]))
	}
	for i := n - 1; i >= 0; i-- {
		s := float64(dst[i])
		for k := i + 1; k < n; k++ {
			s -= float64(l.Data[k*n+i]) * float64(dst[k])
		}
		dst[i] = float32(s / float64(l.Data[i*n+i]))
	}
	return dst
}

// Scores32Into computes cross·coeff — the scores-into step of the Float32
// backend — accumulating each row dot product in float64 and writing
// float64 scores into dst (capacity-reused), so downstream classification
// and accuracy run on the same score type as every other backend.
func Scores32Into(dst []float64, cross *M32, coeff []float32) []float64 {
	if cross.Cols != len(coeff) {
		panic(fmt.Sprintf("engine: Scores32 shape mismatch (%dx%d)*%d", cross.Rows, cross.Cols, len(coeff)))
	}
	if cap(dst) < cross.Rows {
		dst = make([]float64, cross.Rows)
	}
	dst = dst[:cross.Rows]
	d := cross.Cols
	for i := 0; i < cross.Rows; i++ {
		row := cross.Data[i*d : (i+1)*d]
		s := 0.0
		for k, v := range row {
			s += float64(v) * float64(coeff[k])
		}
		dst[i] = s
	}
	return dst
}

// Center32 applies the feature-space centering transform
// K' = K − 1K/n − K1/n + 1K1/n² in place, with the row means and total
// accumulated in float64 — the f32 twin of kernel.Center.
func Center32(g *M32) {
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
		for j := range row {
			row[j] = float32(float64(row[j]) - rowMean[i] - rowMean[j] + total)
		}
	}
}

// Alignment32 returns the centered kernel-target alignment
// ⟨K, yyᵀ⟩_F / (‖K‖_F · ‖yyᵀ‖_F) of a (pre-centered) float32 Gram against
// ±1 labels, accumulating in float64 — the f32 twin of kernel.Alignment.
func Alignment32(g *M32, y []int) float64 {
	n := g.Rows
	if n == 0 || len(y) != n {
		return 0
	}
	var kyy, kk float64
	for i := 0; i < n; i++ {
		row := g.Data[i*n : (i+1)*n]
		for j, f := range row {
			v := float64(f)
			kyy += v * float64(y[i]*y[j])
			kk += v * v
		}
	}
	if kk <= 0 {
		return 0
	}
	return kyy / (math.Sqrt(kk) * float64(n))
}
