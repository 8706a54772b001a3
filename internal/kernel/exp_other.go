//go:build !amd64 || purego

package kernel

// useAVX2 is false off amd64 and under the purego tag: expScaled runs its
// scalar loop.
var useAVX2 = false

func expLanesAVX2(x *float64, n int, m float64) int { panic("kernel: no AVX2 exp in this build") }
