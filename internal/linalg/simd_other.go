//go:build !amd64 || purego

package linalg

// useAVX2 and useAVX512 are false off amd64 and under the purego tag:
// CholeskyInto, SyrkTInto, AccumulateScaled and AccumulateProduct run
// their Go loops.
var useAVX2, useAVX512 = false, false

func cholTileAVX2(l, a *float64, n, j0 int)    { panic("linalg: no AVX2 kernels in this build") }
func cholPanelAVX2(l, a *float64, n, j0 int)   { panic("linalg: no AVX2 kernels in this build") }
func cholTileAVX512(l, a *float64, n, j0 int)  { panic("linalg: no AVX-512 kernels in this build") }
func cholPanelAVX512(l, a *float64, n, j0 int) { panic("linalg: no AVX-512 kernels in this build") }
func syrkTRowAVX2(d, row *float64, c int)      { panic("linalg: no AVX2 kernels in this build") }
func accScaledAVX2(acc, src *float64, w float64, n int) {
	panic("linalg: no AVX2 kernels in this build")
}
func accProductAVX2(acc, src *float64, n int) { panic("linalg: no AVX2 kernels in this build") }
