//go:build amd64 && !purego

package linalg

// useAVX2 routes the float64 CholeskyInto, SyrkTInto, AccumulateScaled
// and AccumulateProduct through the AVX2 kernels of simd_amd64.s, and
// useAVX512 routes CholeskyInto's eight-column blocks through the AVX-512
// ones (it is set only alongside useAVX2). Both are detected once, by
// CPUID and XGETBV, and the tests flip them to run the narrower lanes or
// the Go loops on the same host.
var useAVX2, useAVX512 = cpuFeatures()

// cpuFeatures reports whether the CPU has AVX2 with the OS saving YMM
// state, and whether it also has AVX512F with the OS saving the opmask
// and ZMM state.
func cpuFeatures() (avx2, avx512 bool)

//go:noescape
func cholTileAVX2(l, a *float64, n, j0 int)

//go:noescape
func cholPanelAVX2(l, a *float64, n, j0 int)

//go:noescape
func cholTileAVX512(l, a *float64, n, j0 int)

//go:noescape
func cholPanelAVX512(l, a *float64, n, j0 int)

//go:noescape
func syrkTRowAVX2(d, row *float64, c int)

//go:noescape
func accScaledAVX2(acc, src *float64, w float64, n int)

//go:noescape
func accProductAVX2(acc, src *float64, n int)
