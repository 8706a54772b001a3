package game

import (
	"math"
	"testing"
	"testing/quick"
)

// prisoners returns the Prisoner's Dilemma (higher = better): cooperate=0,
// defect=1.
func prisoners(t *testing.T) *Bimatrix {
	t.Helper()
	g, err := NewBimatrix(
		[][]float64{{3, 0}, {5, 1}},
		[][]float64{{3, 5}, {0, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewBimatrixValidation(t *testing.T) {
	if _, err := NewBimatrix(nil, nil); err == nil {
		t.Error("empty game accepted")
	}
	if _, err := NewBimatrix([][]float64{{1}}, [][]float64{{1}, {2}}); err == nil {
		t.Error("row mismatch accepted")
	}
	if _, err := NewBimatrix([][]float64{{1, 2}, {3}}, [][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Error("ragged matrix accepted")
	}
}

func TestZeroSum(t *testing.T) {
	g, err := NewZeroSum([][]float64{{1, -1}, {-1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsZeroSum() {
		t.Error("NewZeroSum should produce a zero-sum game")
	}
	if prisoners(t).IsZeroSum() {
		t.Error("prisoner's dilemma is not zero-sum")
	}
}

func TestPureNashPrisonersDilemma(t *testing.T) {
	eqs := prisoners(t).PureNash()
	if len(eqs) != 1 || eqs[0] != [2]int{1, 1} {
		t.Errorf("equilibria = %v, want [(defect, defect)]", eqs)
	}
}

func TestPureNashMatchingPenniesEmpty(t *testing.T) {
	g, err := NewZeroSum([][]float64{{1, -1}, {-1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if eqs := g.PureNash(); len(eqs) != 0 {
		t.Errorf("matching pennies has no pure equilibrium, got %v", eqs)
	}
}

func TestIteratedBestResponseConvergesToNash(t *testing.T) {
	r, c, conv := prisoners(t).IteratedBestResponse(0, 0, 100)
	if !conv || r != 1 || c != 1 {
		t.Errorf("IBR = (%d,%d,conv=%v), want (1,1,true)", r, c, conv)
	}
	// Out-of-range start is clamped.
	r2, c2, _ := prisoners(t).IteratedBestResponse(-5, 99, 100)
	if r2 != 1 || c2 != 1 {
		t.Errorf("clamped IBR = (%d,%d)", r2, c2)
	}
}

func TestIteratedBestResponseCyclesOnMatchingPennies(t *testing.T) {
	g, _ := NewZeroSum([][]float64{{1, -1}, {-1, 1}})
	_, _, conv := g.IteratedBestResponse(0, 0, 50)
	if conv {
		t.Error("IBR should not converge on matching pennies")
	}
}

func TestFictitiousPlayMatchingPennies(t *testing.T) {
	// Mixed equilibrium: (1/2, 1/2) each, value 0.
	g, _ := NewZeroSum([][]float64{{1, -1}, {-1, 1}})
	m := g.FictitiousPlay(20000, 3)
	for i, p := range m.Row {
		if math.Abs(p-0.5) > 0.05 {
			t.Errorf("row[%d] = %v, want ≈ 0.5", i, p)
		}
	}
	if math.Abs(m.RowVal) > 0.05 {
		t.Errorf("value = %v, want ≈ 0", m.RowVal)
	}
}

func TestFictitiousPlayZeroSumValueProperty(t *testing.T) {
	// In zero-sum games the two players' fictitious-play values are
	// opposite, and the value approximates the minimax value.
	f := func(a, b, c, d int8) bool {
		g, err := NewZeroSum([][]float64{
			{float64(a % 5), float64(b % 5)},
			{float64(c % 5), float64(d % 5)},
		})
		if err != nil {
			return false
		}
		m := g.FictitiousPlay(4000, 1)
		return math.Abs(m.RowVal+m.ColVal) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFictitiousPlaySaddlePointValue(t *testing.T) {
	// Game with saddle point value 2: row 1 guarantees >= 2.
	g, _ := NewZeroSum([][]float64{
		{1, 0},
		{3, 2},
	})
	v := g.FictitiousPlay(5000, 1).RowVal
	if math.Abs(v-2) > 0.05 {
		t.Errorf("minimax value = %v, want 2", v)
	}
}

func TestSocialOptimumAndPriceOfMisalignment(t *testing.T) {
	g := prisoners(t)
	r, c, w := g.SocialOptimum()
	if r != 0 || c != 0 || w != 6 {
		t.Errorf("optimum = (%d,%d,%v), want (0,0,6)", r, c, w)
	}
	// Nash welfare = 2, optimum = 6: price = 3.
	if got := g.PriceOfMisalignment(); math.Abs(got-3) > 1e-12 {
		t.Errorf("price of misalignment = %v, want 3", got)
	}
	// Games with no pure Nash report 1.
	mp, _ := NewZeroSum([][]float64{{1, -1}, {-1, 1}})
	if mp.PriceOfMisalignment() != 1 {
		t.Error("no-pure-Nash game should report price 1")
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point{
		{Label: "a", Values: []float64{1, 1}},
		{Label: "b", Values: []float64{2, 0.5}},
		{Label: "c", Values: []float64{0.5, 2}},
		{Label: "d", Values: []float64{0.5, 0.5}}, // dominated by a
		{Label: "e", Values: []float64{1, 1}},     // tie with a: both stay
	}
	front := ParetoFront(pts)
	labels := map[string]bool{}
	for _, p := range front {
		labels[p.Label] = true
	}
	if labels["d"] {
		t.Error("dominated point on the front")
	}
	for _, want := range []string{"a", "b", "c", "e"} {
		if !labels[want] {
			t.Errorf("%s missing from front %v", want, labels)
		}
	}
}

func TestParetoDominatesEdgeCases(t *testing.T) {
	if dominates([]float64{1, 2}, []float64{1, 2}) {
		t.Error("equal vectors should not dominate")
	}
	if dominates([]float64{1}, []float64{1, 2}) {
		t.Error("length mismatch should not dominate")
	}
	if !dominates([]float64{2, 2}, []float64{1, 2}) {
		t.Error("strictly better in one coord should dominate")
	}
}

func TestSequentialGamePerfectSignalIsStackelberg(t *testing.T) {
	// Leader payoffs make (row 0) best when follower responds correctly;
	// with a perfect signal the follower sees the action and best-responds.
	g, err := NewBimatrix(
		[][]float64{{4, 0}, {3, 1}},
		[][]float64{{2, 1}, {0, 3}},
	)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := NewSequentialGame(g, [][]float64{{1, 0}, {0, 1}}) // perfect signal
	if err != nil {
		t.Fatal(err)
	}
	sol := sg.Solve(100)
	// Follower BR to row 0 is col 0 (2 > 1) giving leader 4; BR to row 1 is
	// col 1 (3 > 0) giving leader 1. Stackelberg leader picks row 0.
	if sol.LeaderAction != 0 {
		t.Errorf("leader = %d, want 0", sol.LeaderAction)
	}
	if sol.FollowerPolicy[0] != 0 {
		t.Errorf("follower policy on signal 0 = %d, want 0", sol.FollowerPolicy[0])
	}
	if math.Abs(sol.LeaderPayoff-4) > 0.5 {
		t.Errorf("leader payoff = %v, want ≈ 4", sol.LeaderPayoff)
	}
}

func TestSequentialGameUninformativeSignal(t *testing.T) {
	g, _ := NewBimatrix(
		[][]float64{{4, 0}, {3, 1}},
		[][]float64{{2, 1}, {0, 3}},
	)
	sg, err := NewSequentialGame(g, [][]float64{{1}, {1}}) // one signal for both actions
	if err != nil {
		t.Fatal(err)
	}
	sol := sg.Solve(100)
	if len(sol.FollowerPolicy) != 1 {
		t.Fatalf("policy length = %d, want 1 (single signal)", len(sol.FollowerPolicy))
	}
}

func TestSequentialGameValidation(t *testing.T) {
	g := prisoners(t)
	if _, err := NewSequentialGame(g, [][]float64{{1}}); err == nil {
		t.Error("signal row count mismatch accepted")
	}
	if _, err := NewSequentialGame(g, [][]float64{{0.5, 0.4}, {1, 0}}); err == nil {
		t.Error("non-stochastic signal row accepted")
	}
	if _, err := NewSequentialGame(g, [][]float64{{1, 0}, {1}}); err == nil {
		t.Error("ragged signal accepted")
	}
}

func TestNoisySignal(t *testing.T) {
	s := NoisySignal(3, 0.3)
	for i := range s {
		sum := 0.0
		for _, p := range s[i] {
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("row %d sums to %v", i, sum)
		}
		if math.Abs(s[i][i]-0.7) > 1e-12 {
			t.Errorf("diagonal = %v, want 0.7", s[i][i])
		}
	}
	// Clamping.
	if NoisySignal(2, -1)[0][0] != 1 {
		t.Error("eps < 0 should clamp to perfect signal")
	}
	if NoisySignal(1, 0.5)[0][0] != 1 {
		t.Error("single action should always have probability 1")
	}
}

func TestSequentialSignalQualityMonotonicity(t *testing.T) {
	// With better signals the leader should never do worse (in this game).
	g, _ := NewBimatrix(
		[][]float64{{4, 0}, {3, 1}},
		[][]float64{{2, 1}, {0, 3}},
	)
	var prev float64 = math.Inf(-1)
	for _, eps := range []float64{0.5, 0.25, 0} {
		sg, err := NewSequentialGame(g, NoisySignal(2, eps))
		if err != nil {
			t.Fatal(err)
		}
		sol := sg.Solve(100)
		if sol.LeaderPayoff < prev-0.3 {
			t.Errorf("leader payoff dropped from %v to %v as signal improved", prev, sol.LeaderPayoff)
		}
		prev = sol.LeaderPayoff
	}
}
