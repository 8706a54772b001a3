//go:build !amd64 || purego

package linalg

// The dispatch flags are false off amd64 and under the purego tag:
// CholeskyInto, SyrkTInto, SyrkInto, PairwiseSquaredDistancesUpperInto,
// AccumulateScaled, AccumulateProduct and ExpScaled run their Go loops.
var useAVX2, useAVX512, useExp = false, false, false

func cholTileAVX2(l, a *float64, n, j0 int)    { panic("linalg: no AVX2 kernels in this build") }
func cholPanelAVX2(l, a *float64, n, j0 int)   { panic("linalg: no AVX2 kernels in this build") }
func cholTileAVX512(l, a *float64, n, j0 int)  { panic("linalg: no AVX-512 kernels in this build") }
func cholPanelAVX512(l, a *float64, n, j0 int) { panic("linalg: no AVX-512 kernels in this build") }
func syrkTRowAVX2(d, row *float64, c int)      { panic("linalg: no AVX2 kernels in this build") }
func dotRowAVX2(out, xi, xt, nj *float64, ni float64, m, d, n int) {
	panic("linalg: no AVX2 kernels in this build")
}
func dotRowAVX512(out, xi, xt, nj *float64, ni float64, m, d, n int) {
	panic("linalg: no AVX-512 kernels in this build")
}
func accScaledAVX2(acc, src *float64, w float64, n int) {
	panic("linalg: no AVX2 kernels in this build")
}
func accProductAVX2(acc, src *float64, n int)       { panic("linalg: no AVX2 kernels in this build") }
func expLanesAVX2(x *float64, n int, m float64) int { panic("linalg: no AVX2 exp in this build") }
