package linalg

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// expSpecials are the arguments at and around the packed path's edges:
// signed zeros, the range bounds and their neighbours, arguments whose
// exp is denormal or underflows to 0, non-finite values, and arguments
// above 0 (overflow included).
var expSpecials = []float64{
	0, math.Copysign(0, -1), -708, math.Nextafter(-708, math.Inf(-1)),
	math.Nextafter(-708, 0), -708.3, -708.5, -709, -720, -740, -745.1,
	-745.2, -746, -800, -1e308, -math.MaxFloat64, math.Inf(-1), math.NaN(),
	math.Inf(1), -5e-324, -1e-300, -math.SmallestNonzeroFloat64 * 3,
	1e-300, 1, 0.5, 709.78, 709.79, 1000,
}

// expArgument draws one argument m·x for the property test: mostly the
// RBF range, the whole packed range, and the fallback range below it,
// with a special value one time in sixteen.
func expArgument(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return expSpecials[rng.Intn(len(expSpecials))]
	case 1, 2, 3:
		return -800 * rng.Float64()
	case 4:
		return -708 - 40*rng.Float64()
	case 5:
		return -1e-3 * rng.Float64()
	default:
		return -30 * rng.Float64()
	}
}

// TestExpLanesMatchesMathExp pins ExpScaled[float64] to math.Exp(m·x) bit
// for bit on every dispatch path, over 4,194,304 arguments per path in
// slices of every length 0–9 and long slices whose length is not a
// multiple of 4, so groups, mixed groups (one lane out of range), tails
// and the specials all meet the packed path. It logs whether the exp
// lanes ran, for TestExpLanesFollowMathExpBranch.
func TestExpLanesMatchesMathExp(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		multipliers := []float64{1, -1, -0.37, -2.5}
		const total = 1 << 22
		var x, args []float64
		checked, mismatches := 0, 0
		check := func(n int) {
			m := multipliers[rng.Intn(len(multipliers))]
			x, args = x[:0], args[:0]
			for i := 0; i < n; i++ {
				a := expArgument(rng)
				v := a / m
				if m == 1 {
					v = a
				}
				x = append(x, v)
				args = append(args, m*v)
			}
			ExpScaled(x, m)
			for i, a := range args {
				want := math.Exp(a)
				if math.Float64bits(x[i]) != math.Float64bits(want) {
					if mismatches < 10 {
						t.Errorf("exp(%v) (len %d, index %d): got %v (%#x), want %v (%#x)", a, n, i, x[i], math.Float64bits(x[i]), want, math.Float64bits(want))
					}
					mismatches++
				}
			}
			checked += n
		}
		for n := 0; n <= 9; n++ {
			for rep := 0; rep < 2000; rep++ {
				check(n)
			}
		}
		for _, n := range []int{4097, 4099, 1023} {
			for rep := 0; rep < 16; rep++ {
				check(n)
			}
		}
		for checked < total {
			check(4093)
		}
		// Every special in every lane position of one group.
		for _, s := range expSpecials {
			for lane := 0; lane < 4; lane++ {
				x = append(x[:0], -1, -2, -3, -4, -5)
				x[lane] = s
				want := make([]float64, len(x))
				for i, v := range x {
					want[i] = math.Exp(v)
				}
				ExpScaled(x, 1)
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
						t.Errorf("special %v in lane %d: entry %d got %#x, want %#x", s, lane, i, math.Float64bits(x[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
		if mismatches > 0 {
			t.Fatalf("%d of %d arguments differ from math.Exp", mismatches, checked)
		}
		lanes := "off"
		if useExp {
			lanes = "on"
		}
		t.Logf("%d arguments, 0 mismatches, exp lanes %s", checked, lanes)
	})
}

// TestExpLanesFollowMathExpBranch re-runs TestExpLanesMatchesMathExp in a
// child process with GODEBUG=cpu.fma=off, which sends math.Exp down its
// non-FMA branch on an FMA host: the lanes must then stay off on every
// path, or that test fails there.
func TestExpLanesFollowMathExpBranch(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the 4M-argument exp test in a child process")
	}
	if !useExp {
		t.Skip("no AVX2+FMA exp on this host or in this build")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestExpLanesMatchesMathExp$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "exp lanes on") || !strings.Contains(string(out), "exp lanes off") {
		t.Fatalf("with GODEBUG=cpu.fma=off the lanes stayed on:\n%s", out)
	}
}

// TestExpScaledFloat32MatchesScalarReference pins the float32
// instantiation, which never takes the lanes, to the scalar map rbfGram
// ran at float32 before it called ExpScaled: T(math.Exp(m·float64(v))).
func TestExpScaledFloat32MatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := make([]float32, 4099)
	want := make([]float32, len(x))
	for i := range x {
		x[i] = float32(40 * rng.Float64())
		want[i] = float32(math.Exp(-0.37 * float64(x[i])))
	}
	ExpScaled(x, -0.37)
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(want[i]) {
			t.Fatalf("entry %d: got %#x, want %#x", i, math.Float32bits(x[i]), math.Float32bits(want[i]))
		}
	}
}

// BenchmarkExpScaled times one 4096-entry RBF row segment through the
// exp lanes and through scalar math.Exp.
func BenchmarkExpScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, 4096)
	for i := range src {
		src[i] = 40 * rng.Float64()
	}
	x := make([]float64, len(src))
	detected := useExp
	defer func() { useExp = detected }()
	for _, path := range []struct {
		name  string
		lanes bool
	}{{"lanes", true}, {"go", false}} {
		b.Run(path.name, func(b *testing.B) {
			if path.lanes && !detected {
				b.Skip("no AVX2+FMA exp on this host or in this build")
			}
			useExp = path.lanes
			for i := 0; i < b.N; i++ {
				copy(x, src)
				ExpScaled(x, -0.5)
			}
		})
	}
}
