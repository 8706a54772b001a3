//go:build amd64 && !purego

package linalg

import "math"

// The module's dispatch flags, decided once from cpuFeatures, the one CPU
// probe. useAVX2 routes the float64 CholeskyInto, SyrkTInto,
// AccumulateScaled and AccumulateProduct through the AVX2 kernels of
// simd_amd64.s; useAVX512 routes CholeskyInto's eight-column blocks
// through the AVX-512 ones (it is set only alongside useAVX2); useExp
// routes the float64 ExpScaled through the packed exp, on hosts with AVX2
// and FMA whose math.Exp the lanes reproduce (expLanesAgree). The tests
// flip them to run the narrower lanes or the Go loops on the same host.
var useAVX2, useAVX512, useExp = dispatch()

func dispatch() (avx2, avx512, exp bool) {
	avx2, fma, avx512 := cpuFeatures()
	return avx2, avx512, avx2 && fma && expLanesAgree()
}

// cpuFeatures reports whether the CPU has AVX2 with the OS saving YMM
// state, whether it also has FMA, and whether it also has AVX512F with the
// OS saving the opmask and ZMM state.
func cpuFeatures() (avx2, fma, avx512 bool)

// expLanesAgree reports whether the packed exp equals math.Exp bit for bit
// on 256 arguments spread over [-20, 0), of which math.Exp's FMA and
// non-FMA branches round 17 differently. math.Exp takes the FMA branch
// the lanes copy only while Go's own CPU feature detection allows it, so
// this catches an FMA host whose math.Exp was sent down the non-FMA
// branch, as GODEBUG=cpu.fma=off does.
func expLanesAgree() bool {
	var x, want [256]float64
	for i := range x {
		x[i] = -20 * float64(i+1) / float64(len(x))
		want[i] = math.Exp(x[i])
	}
	if expLanesAVX2(&x[0], len(x), 1) != len(x) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

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

//go:noescape
func expLanesAVX2(x *float64, n int, m float64) int
