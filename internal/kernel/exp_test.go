package kernel

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/linalg"
)

// forEachExpPath runs f once per dispatch path of expScaled: through the
// packed AVX2 exp (skipped when this host or build has none), then through
// scalar math.Exp, restoring the detected path afterwards.
func forEachExpPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	detected := useAVX2
	t.Cleanup(func() { useAVX2 = detected })
	for _, path := range []struct {
		name string
		avx2 bool
	}{{"avx2", true}, {"go", false}} {
		t.Run(path.name, func(t *testing.T) {
			if path.avx2 && !detected {
				t.Skip("no AVX2+FMA exp on this host or in this build")
			}
			useAVX2 = path.avx2
			f(t)
		})
	}
}

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

// TestExpLanesMatchesMathExp pins expScaled to math.Exp(m·x) bit for bit on
// both dispatch paths, over 4,194,304 arguments per path in slices of
// every length 0–9 and long slices whose length is not a multiple of 4,
// so groups, mixed groups (one lane out of range), tails and the specials
// all meet the packed path.
func TestExpLanesMatchesMathExp(t *testing.T) {
	forEachExpPath(t, func(t *testing.T) {
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
			expScaled(x, m)
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
				expScaled(x, 1)
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
		t.Logf("%d arguments, 0 mismatches", checked)
	})
}

// TestExpLanesFollowMathExpBranch re-runs TestExpLanesMatchesMathExp in a
// child process with GODEBUG=cpu.fma=off, which sends math.Exp down its
// non-FMA branch on an FMA host: the lanes must then stay off, or that
// test fails there.
func TestExpLanesFollowMathExpBranch(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs the 4M-argument exp test in a child process")
	}
	if !useAVX2 {
		t.Skip("no AVX2+FMA exp on this host or in this build")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestExpLanesMatchesMathExp$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "no AVX2+FMA exp on this host") {
		t.Fatalf("with GODEBUG=cpu.fma=off the lanes stayed on:\n%s", out)
	}
}

// TestRBFGramMatchesScalarReference pins the two exp sites of the RBF
// block path — rbfGram (each row's upper segment, then the mirror store)
// and boundRBF.Fill — to the scalar reference chains bit for bit on both
// dispatch paths. The orders put every segment length 0–9 after the
// groups of four, and the bandwidths push some arguments below −708 so
// mixed groups take the scalar fallback inside a row.
func TestRBFGramMatchesScalarReference(t *testing.T) {
	forEachExpPath(t, func(t *testing.T) {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 31, 64, 97} {
			for _, gamma := range []float64{0.05, 1, 40, 900} {
				x := linalg.FromRows(testRows(n, 3, int64(n)*7+1))
				k := RBF{Gamma: gamma}
				got := linalg.NewMatrix(n, n)
				if !blockGramInto(got, k, x) {
					t.Fatal("RBF has no block formula")
				}
				want := linalg.NewMatrix(n, n)
				refGramInto(want, x, k)
				checkBits(t, "rbfGram", n, gamma, got, want)

				a := linalg.FromRows(testRows(n+3, 3, int64(n)*7+2))
				bound, _ := k.BindCross(x)
				var sc CrossScratch
				gotX := linalg.NewMatrix(a.Rows, n)
				bound.Fill(gotX, a, &sc)
				wantX := linalg.NewMatrix(a.Rows, n)
				refCrossGramInto(wantX, a, x, k)
				checkBits(t, "boundRBF.Fill", n, gamma, gotX, wantX)
			}
		}
	})
}

func checkBits(t *testing.T, what string, n int, gamma float64, got, want *linalg.Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s n=%d γ=%g entry %d: got %#x, want %#x", what, n, gamma, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// expFusedOps is the fused-operation set of math.Exp's FMA branch that
// exp_amd64.s replays in packed form: two VFNMADD231 in the argument
// reduction, seven VFMADD213 in the Taylor polynomial and one in the last
// square step. Every other instruction there rounds once per operation.
var expFusedOps = map[string]int{"VFNMADD231PD": 2, "VFMADD213PD": 8}

// TestExpAsmFusedOpsArePinned holds the module's assembly to one set of
// fused multiply-adds: exactly expFusedOps in this package's assembly,
// and none in any other assembly file of the module (linalg's kernels
// replay Go loops that round twice, so a fused operation there would
// break their bit-identity).
func TestExpAsmFusedOpsArePinned(t *testing.T) {
	root := filepath.Join("..", "..")
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".s") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	own := 0
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		isOwn := filepath.Dir(f) == filepath.Join(root, "internal", "kernel")
		counts := map[string]int{}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			for _, tok := range strings.Fields(strings.ToUpper(code)) {
				for _, fused := range []string{"VFMADD", "VFMSUB", "VFNMADD", "VFNMSUB"} {
					if !strings.HasPrefix(tok, fused) {
						continue
					}
					counts[tok]++
					if _, ok := expFusedOps[tok]; !ok || !isOwn {
						t.Errorf("%s:%d: fused operation %s outside math.Exp's FMA branch set", f, i+1, tok)
					}
				}
			}
		}
		if !isOwn {
			continue
		}
		own++
		if filepath.Base(f) != "exp_amd64.s" {
			continue
		}
		for op, want := range expFusedOps {
			if counts[op] != want {
				t.Errorf("%s: %d %s, want %d", f, counts[op], op, want)
			}
		}
	}
	if own == 0 {
		t.Fatal("no assembly files found in the package directory")
	}
}

// BenchmarkExpScaled times one 4096-entry RBF row segment per dispatch
// path.
func BenchmarkExpScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float64, 4096)
	for i := range src {
		src[i] = 40 * rng.Float64()
	}
	x := make([]float64, len(src))
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	for _, path := range []struct {
		name string
		avx2 bool
	}{{"avx2", true}, {"go", false}} {
		b.Run(path.name, func(b *testing.B) {
			if path.avx2 && !detected {
				b.Skip("no AVX2+FMA exp on this host or in this build")
			}
			useAVX2 = path.avx2
			for i := 0; i < b.N; i++ {
				copy(x, src)
				expScaled(x, -0.5)
			}
		})
	}
}
