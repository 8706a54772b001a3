package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestSyrkIntoMatchesPairwiseDots(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randMatrix(7, 5, rng)
	g := UnpackInto(nil, SyrkInto(nil, x))
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Rows; j++ {
			// Bit-identity with the scalar left-to-right dot product is the
			// contract the exact kernels (linear, polynomial) rely on.
			s := 0.0
			for k := 0; k < x.Cols; k++ {
				s += x.At(i, k) * x.At(j, k)
			}
			if g.At(i, j) != s {
				t.Fatalf("Syrk(%d,%d) = %v, scalar dot %v", i, j, g.At(i, j), s)
			}
		}
	}
}

func TestSyrkIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randMatrix(4, 3, rng)
	buf := ReshapePacked[float64](nil, 5)
	if got := SyrkInto(buf, x); got != buf || got.N != 4 || len(got.Data) != 10 {
		t.Error("SyrkInto did not reuse a buffer with room for order 4")
	}
	if got := SyrkInto(ReshapePacked[float64](nil, 2), x); got.N != 4 || len(got.Data) != 10 {
		t.Errorf("SyrkInto kept a short buffer: order %d, %d entries", got.N, len(got.Data))
	}
}

func TestGemmNTIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(5, 4, rng)
	b := randMatrix(6, 4, rng)
	got := GemmNTInto(nil, a, b)
	want := a.Mul(b.T())
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("entry %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestGemmNTIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on inner dimension mismatch")
		}
	}()
	GemmNTInto(nil, NewMatrix(2, 3), NewMatrix(2, 4))
}

func TestRowSquaredNorms(t *testing.T) {
	x := FromRows([][]float64{{3, 4}, {0, 0}, {1, 1}})
	got := RowSquaredNorms(nil, x)
	want := []float64{25, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("norm²[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPairwiseSquaredDistancesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randMatrix(9, 6, rng)
	// A recycled, larger destination: every packed entry of the order-9
	// result must be overwritten.
	d := ReshapePacked[float64](nil, 12)
	for i := range d.Data {
		d.Data[i] = -3
	}
	d = PairwiseSquaredDistancesUpperInto(d, x)
	if d.N != 9 || len(d.Data) != 45 {
		t.Fatalf("order %d with %d entries, want 9 with 45", d.N, len(d.Data))
	}
	for i := 0; i < x.Rows; i++ {
		row := d.Row(i)
		if row[0] != 0 {
			t.Errorf("diagonal (%d,%d) = %v, want exactly 0", i, i, row[0])
		}
		for j := i; j < x.Rows; j++ {
			direct := 0.0
			for k := 0; k < x.Cols; k++ {
				dv := x.At(i, k) - x.At(j, k)
				direct += dv * dv
			}
			if math.Abs(row[j-i]-direct) > 1e-9 {
				t.Fatalf("dist²(%d,%d) = %v, direct %v", i, j, row[j-i], direct)
			}
			if row[j-i] < 0 {
				t.Fatalf("negative distance at (%d,%d): %v", i, j, row[j-i])
			}
		}
	}
}

func TestPairwiseSquaredDistancesClampsCancellation(t *testing.T) {
	// Nearly identical rows with large norms: the expansion cancels and can
	// dip below zero; the result must be clamped, never negative.
	x := FromRows([][]float64{
		{1e8, 1e8, 1e8},
		{1e8, 1e8, 1e8 + 1e-4},
	})
	d := PairwiseSquaredDistancesUpperInto(nil, x)
	if d.Row(0)[1] < 0 {
		t.Errorf("distance %v < 0 after clamp", d.Row(0)[1])
	}
}

func TestCrossSquaredDistancesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(5, 4, rng)
	b := randMatrix(7, 4, rng)
	d := CrossSquaredDistancesInto(nil, a, b, RowSquaredNorms(nil, a), RowSquaredNorms(nil, b))
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			direct := 0.0
			for k := 0; k < a.Cols; k++ {
				dv := a.At(i, k) - b.At(j, k)
				direct += dv * dv
			}
			if math.Abs(d.At(i, j)-direct) > 1e-9 {
				t.Fatalf("dist²(%d,%d) = %v, direct %v", i, j, d.At(i, j), direct)
			}
		}
	}
}

func TestExtractColumns(t *testing.T) {
	x := FromRows([][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}})
	sub := ExtractColumnsInto(nil, x, []int{2, 0})
	want := FromRows([][]float64{{3, 1}, {7, 5}})
	for i := range want.Data {
		if sub.Data[i] != want.Data[i] {
			t.Fatalf("ExtractColumnsInto = %v, want %v", sub.Data, want.Data)
		}
	}
}

func TestFromRowsCols(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	sub := FromRowsCols[float64](rows, []int{1, 2})
	want := FromRows([][]float64{{2, 3}, {5, 6}, {8, 9}})
	if sub.Rows != 3 || sub.Cols != 2 {
		t.Fatalf("shape %dx%d", sub.Rows, sub.Cols)
	}
	for i := range want.Data {
		if sub.Data[i] != want.Data[i] {
			t.Fatalf("FromRowsCols = %v, want %v", sub.Data, want.Data)
		}
	}
}
