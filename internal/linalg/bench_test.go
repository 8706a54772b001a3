package linalg

import (
	"fmt"
	"math/rand"
	"sort"
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
	a := UnpackInto(nil, SyrkInto(nil, randMatrix(n, n, rand.New(rand.NewSource(1)))))
	a.AddScaledDiag(1)
	return a
}

func BenchmarkCholeskyInto_F64_450(b *testing.B) {
	a := cholBenchMatrix(cholBenchN)
	benchKernelPaths(b, func(b *testing.B) { benchCholesky(b, a) })
}

func BenchmarkCholeskyInto_F64_90(b *testing.B) {
	a := cholBenchMatrix(cholBenchSmallN)
	benchKernelPaths(b, func(b *testing.B) { benchCholesky(b, a) })
}

func BenchmarkCholeskyInto_F32_450(b *testing.B) {
	benchCholesky(b, Convert[float32](nil, cholBenchMatrix(cholBenchN)))
}

// benchKernelPaths runs f as one sub-benchmark per dispatch path
// (avx512, avx2, go; a path this host or build lacks is skipped), as
// forEachKernelPath does for tests, and restores the detected paths
// afterwards.
func benchKernelPaths(b *testing.B, f func(b *testing.B)) {
	defer restoreKernelPaths()
	for _, path := range kernelPaths {
		b.Run(path.name, func(b *testing.B) {
			if !path.use() {
				b.Skipf("no %s kernels on this host or in this build", path.name)
			}
			f(b)
		})
	}
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

func BenchmarkSolveCholeskyPair_F64_90(b *testing.B) { benchSolvePair(b, cholBenchSmallN) }

func BenchmarkSolveCholeskyPair_F64_450(b *testing.B) { benchSolvePair(b, cholBenchN) }

// benchSolvePair times two CV folds' solves of order n: "pair" runs them
// as one SolveCholeskyPairInto, "sequential" as two SolveCholeskyInto
// calls, the same arithmetic one chain at a time.
func benchSolvePair(b *testing.B, n int) {
	var l [2]*Matrix
	var rhs, x [2]Vector
	for i := range l {
		l[i] = NewMatrix(n, n)
		a := cholBenchMatrix(n)
		a.AddScaledDiag(float64(i))
		if err := CholeskyInto(l[i], a); err != nil {
			b.Fatal(err)
		}
		rhs[i] = Vector(randMatrix(1, n, rand.New(rand.NewSource(int64(i)))).Data)
		x[i] = NewVector(n)
	}
	b.Run("pair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x[0], x[1] = SolveCholeskyPairInto(x[0], l[0], rhs[0], x[1], l[1], rhs[1])
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x[0] = SolveCholeskyInto(x[0], l[0], rhs[0])
			x[1] = SolveCholeskyInto(x[1], l[1], rhs[1])
		}
	})
}

// BenchmarkPairwiseSquaredDistancesUpper times one RBF block's distance
// pass at the fit-solve block order, n=600, for block widths d = 1, 2, 8
// and 16, on every dispatch path: "go" is the register-tiled Go loop, the
// SIMD paths the dot lanes.
func BenchmarkPairwiseSquaredDistancesUpper(b *testing.B) {
	const n = 600
	for _, d := range []int{1, 2, 8, 16} {
		x := randMatrix(n, d, rand.New(rand.NewSource(int64(d))))
		dst := ReshapePacked[float64](nil, n)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			benchKernelPaths(b, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dst = PairwiseSquaredDistancesUpperInto(dst, x)
				}
			})
		})
	}
}

// BenchmarkFoldScores times scoring one CV fold's test rows from the
// candidate Gram at the fit-solve (n=600) and fit-search (n=120) sizes of
// a 4-fold fit: "gather" materializes the n_te×n_tr cross-Gram and runs
// MulVecInto on it, "direct" is GatherMulVecInto, the same sums without
// the gather.
func BenchmarkFoldScores(b *testing.B) {
	for _, n := range []int{600, 120} {
		rng := rand.New(rand.NewSource(int64(n)))
		gram := randMatrix(n, n, rng)
		perm := rng.Perm(n)
		test, train := perm[:n/4], perm[n/4:]
		sort.Ints(test)
		sort.Ints(train)
		beta := randMatrix(1, len(train), rng).Data
		var cross *Matrix
		var dst []float64
		b.Run(fmt.Sprintf("n=%d/gather", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cross = GatherInto(cross, gram, test, train)
				dst = MulVecInto(dst, cross, beta)
			}
		})
		b.Run(fmt.Sprintf("n=%d/direct", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst = GatherMulVecInto(dst, gram, test, train, beta)
			}
		})
	}
}
