//go:build amd64 && !purego

package kernel

import "math"

// useAVX2 routes expScaled through the packed exp of exp_amd64.s. It is
// decided once: CPUID and XGETBV must report AVX2, FMA and OS-saved YMM
// state, and the lanes must then give math.Exp's own bits on a fixed
// probe (expLanesAgree), since math.Exp takes the FMA branch the kernel
// copies only while Go's CPU feature detection allows it. The tests flip
// it to run the scalar loop on the same host.
var useAVX2 = cpuHasAVX2FMA() && expLanesAgree()

// expLanesAgree reports whether the packed exp equals math.Exp bit for bit
// on 256 arguments spread over [-20, 0), of which math.Exp's FMA and
// non-FMA branches round 17 differently. It catches an FMA host whose
// math.Exp was sent down the non-FMA branch, as GODEBUG=cpu.fma=off does.
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

// cpuHasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves
// YMM state.
func cpuHasAVX2FMA() bool

//go:noescape
func expLanesAVX2(x *float64, n int, m float64) int
