package kernel

import "math"

// expScaled overwrites each x[i] with math.Exp(m·x[i]), bit for bit. On
// hosts with AVX2 and FMA (useAVX2) groups of four go through the packed
// copy of math.Exp's FMA branch (exp_amd64.s), whose lanes equal math.Exp
// there; a group with an argument outside [-708, 0], the tail, and every
// entry on other hosts and builds take math.Exp itself.
//
//iotml:hotpath
func expScaled(x []float64, m float64) {
	i := 0
	if useAVX2 {
		for len(x)-i >= 4 {
			i += expLanesAVX2(&x[i], len(x)-i, m)
			if len(x)-i < 4 {
				break
			}
			for end := i + 4; i < end; i++ {
				x[i] = math.Exp(m * x[i])
			}
		}
	}
	for ; i < len(x); i++ {
		x[i] = math.Exp(m * x[i])
	}
}
