package linalg

import (
	"math/rand"
	"reflect"
	"testing"
)

func randSPD(n int, rng *rand.Rand) *Matrix {
	x := NewMatrix(n, n+2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	a := SyrkInto(nil, x)
	a.AddScaledDiag(float64(n)) // comfortably positive definite
	return a
}

func TestReshapeReusesCapacity(t *testing.T) {
	m := NewMatrix(10, 10)
	base := &m.Data[0]
	for _, shape := range [][2]int{{9, 10}, {10, 9}, {10, 10}, {3, 7}, {10, 10}} {
		m = Reshape(m, shape[0], shape[1])
		if m.Rows != shape[0] || m.Cols != shape[1] {
			t.Fatalf("Reshape to %v: got %dx%d", shape, m.Rows, m.Cols)
		}
		if &m.Data[0] != base {
			t.Fatalf("Reshape to %v reallocated despite sufficient capacity", shape)
		}
	}
	m = Reshape(m, 11, 11)
	if m.Rows != 11 || m.Cols != 11 {
		t.Fatalf("Reshape grow: got %dx%d", m.Rows, m.Cols)
	}
	if &m.Data[0] == base {
		t.Fatal("Reshape past capacity must reallocate")
	}
	if got := Reshape[float64](nil, 2, 3); got.Rows != 2 || got.Cols != 3 {
		t.Fatalf("Reshape(nil): got %dx%d", got.Rows, got.Cols)
	}
}

func TestRunsOf(t *testing.T) {
	cases := []struct {
		idx  []int
		want []Run
	}{
		{nil, nil},
		{[]int{3}, []Run{{3, 1}}},
		{[]int{4, 5, 6, 2, 9, 10}, []Run{{4, 3}, {2, 1}, {9, 2}}},
		{[]int{0, 1, 2, 3}, []Run{{0, 4}}},
		{[]int{5, 3, 1}, []Run{{5, 1}, {3, 1}, {1, 1}}},
		{[]int{7, 8, 8}, []Run{{7, 2}, {8, 1}}}, // duplicates break runs
	}
	for _, tc := range cases {
		got := RunsOf(tc.idx)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("RunsOf(%v) = %v, want %v", tc.idx, got, tc.want)
		}
		total := 0
		for _, r := range got {
			total += r.Len
		}
		if total != len(tc.idx) {
			t.Errorf("RunsOf(%v) covers %d indices, want %d", tc.idx, total, len(tc.idx))
		}
	}
}

// TestGatherIntoMatchesScalarGather checks GatherInto against the
// per-element gather it replaces, including scratch reuse across
// alternating shapes.
func TestGatherIntoMatchesScalarGather(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := NewMatrix(12, 12)
	for i := range src.Data {
		src.Data[i] = rng.NormFloat64()
	}
	var dst *Matrix
	for trial := 0; trial < 20; trial++ {
		rows := rng.Perm(12)[:3+rng.Intn(9)]
		cols := rng.Perm(12)[:3+rng.Intn(9)]
		dst = GatherInto(dst, src, rows, RunsOf(cols))
		if dst.Rows != len(rows) || dst.Cols != len(cols) {
			t.Fatalf("trial %d: got %dx%d, want %dx%d", trial, dst.Rows, dst.Cols, len(rows), len(cols))
		}
		for i, a := range rows {
			for j, b := range cols {
				if got, want := dst.At(i, j), src.At(a, b); got != want {
					t.Fatalf("trial %d: dst[%d][%d] = %v, want src[%d][%d] = %v", trial, i, j, got, a, b, want)
				}
			}
		}
	}
}

// TestCholeskyIntoMatchesCholesky asserts the scratch factorization is
// bit-identical to the allocating one, including when the scratch buffer is
// recycled across sizes (stale upper-triangle contents must not leak).
func TestCholeskyIntoMatchesCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewMatrix(1, 1)
	for i := range l.Data {
		l.Data[i] = 999 // poison
	}
	for _, n := range []int{1, 5, 12, 11, 12} {
		a := randSPD(n, rng)
		want, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := CholeskyInto(l, a); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(l.Data, want.Data) {
			t.Fatalf("n=%d: CholeskyInto differs from Cholesky", n)
		}
		// Poison so the next (smaller or equal) size would expose stale reads.
		for i := range l.Data[:cap(l.Data)] {
			l.Data[:cap(l.Data)][i] = 999
		}
	}
	bad := NewMatrix(3, 3) // all zeros: not positive definite
	if err := CholeskyInto(l, bad); err != ErrSingular {
		t.Fatalf("CholeskyInto on singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestSolveCholeskyIntoMatchesSolveCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var dst Vector
	for _, n := range []int{1, 4, 10, 9, 10} {
		a := randSPD(n, rng)
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lm, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		want := solveCholesky(lm, b)
		dst = SolveCholeskyInto(dst, lm, b)
		if !reflect.DeepEqual([]float64(dst), []float64(want)) {
			t.Fatalf("n=%d: SolveCholeskyInto differs from SolveCholesky", n)
		}
	}
}

func TestMulVecIntoMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var dst Vector
	for _, shape := range [][2]int{{4, 6}, {6, 4}, {1, 5}, {6, 4}} {
		m := NewMatrix(shape[0], shape[1])
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		v := NewVector(shape[1])
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		want := m.MulVec(v)
		dst = MulVecInto(dst, m, v)
		if !reflect.DeepEqual([]float64(dst), []float64(want)) {
			t.Fatalf("shape %v: MulVecInto differs from MulVec", shape)
		}
	}
}
