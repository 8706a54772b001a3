package linalg

import (
	"math/rand"
	"testing"
)

// cholBenchN is the CV fold size of a 4-fold fit at n=600: the system
// every fold solve of the fit-solve benchmark workload factors.
// cholBenchSmallN is the fold size at n=120, the fit-search workload's.
const (
	cholBenchN      = 450
	cholBenchSmallN = 90
)

// cholBenchMatrix returns a well-conditioned SPD matrix of order n: the
// Gram of n random points in n dimensions, shifted by the identity.
func cholBenchMatrix(n int) *Matrix {
	a := SyrkInto(nil, randMatrix(n, n, rand.New(rand.NewSource(1))))
	a.AddScaledDiag(1)
	return a
}

func BenchmarkCholeskyInto_F64_450(b *testing.B) {
	benchCholesky(b, cholBenchMatrix(cholBenchN))
}

func BenchmarkCholeskyInto_F64_90(b *testing.B) {
	benchCholesky(b, cholBenchMatrix(cholBenchSmallN))
}

func BenchmarkCholeskyInto_F32_450(b *testing.B) {
	benchCholesky(b, Convert[float32](nil, cholBenchMatrix(cholBenchN)))
}

func benchCholesky[T Float](b *testing.B, a *Dense[T]) {
	l := NewDense[T](a.Rows, a.Cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CholeskyInto(l, a); err != nil {
			b.Fatal(err)
		}
	}
}
