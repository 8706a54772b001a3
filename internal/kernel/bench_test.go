package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// BenchmarkCenteredAlignment times the alignment objective on one packed
// n=600 RBF block of two features, the fit-solve singleton ranking's
// input shape.
func BenchmarkCenteredAlignment(b *testing.B) {
	const n = 600
	rng := rand.New(rand.NewSource(1))
	x := linalg.NewMatrix(n, 2)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := make([]int, n)
	for i := range y {
		y[i] = 1 - 2*rng.Intn(2)
	}
	p := linalg.ReshapePacked[float64](nil, n)
	blockGramInto(p, RBF{Gamma: 1}, x)
	upper := p.UpperRows(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CenteredAlignment(upper, y)
	}
}
