//go:build amd64 && !purego

package linalg

// useAVX2 routes the float64 CholeskyInto, SyrkTInto, AccumulateScaled
// and AccumulateProduct through the AVX2 kernels of simd_amd64.s. It is
// detected once, by CPUID and XGETBV, and the tests flip it to run the Go
// loops on the same host.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func cpuHasAVX2() bool

//go:noescape
func cholTileAVX2(l, a *float64, n, j0 int)

//go:noescape
func cholPanelAVX2(l, a *float64, n, j0 int)

//go:noescape
func syrkTRowAVX2(d, row *float64, c int)

//go:noescape
func accScaledAVX2(acc, src *float64, w float64, n int)

//go:noescape
func accProductAVX2(acc, src *float64, n int)
