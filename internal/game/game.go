// Package game implements the game-theoretic substrate of Section IV:
// bimatrix (two-player normal-form) games, pure Nash enumeration, iterated
// best response, fictitious play for (zero-sum) mixed equilibria, Pareto
// fronts for the multi-objective setting, and two-stage sequential games of
// imperfect information, where the second mover observes only a noisy
// signal of the first mover's action.
package game

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Bimatrix is a two-player normal-form game: A[i][j] is the row player's
// payoff and B[i][j] the column player's when row plays i and column j.
type Bimatrix struct {
	A, B [][]float64
}

// NewBimatrix validates shapes.
func NewBimatrix(a, b [][]float64) (*Bimatrix, error) {
	if len(a) == 0 || len(a[0]) == 0 {
		return nil, errors.New("game: empty payoff matrix")
	}
	if len(a) != len(b) {
		return nil, fmt.Errorf("game: A has %d rows, B has %d", len(a), len(b))
	}
	cols := len(a[0])
	for i := range a {
		if len(a[i]) != cols || len(b[i]) != cols {
			return nil, fmt.Errorf("game: ragged payoff matrices at row %d", i)
		}
	}
	return &Bimatrix{A: a, B: b}, nil
}

// NewZeroSum builds the zero-sum game with row payoff a and column payoff
// -a — the GAN setting of ref [5]: "the gain of one player ... is equal to
// the loss of the other".
func NewZeroSum(a [][]float64) (*Bimatrix, error) {
	b := make([][]float64, len(a))
	for i := range a {
		b[i] = make([]float64, len(a[i]))
		for j := range a[i] {
			b[i][j] = -a[i][j]
		}
	}
	return NewBimatrix(a, b)
}

// Rows and Cols report the strategy-space sizes.
func (g *Bimatrix) Rows() int { return len(g.A) }

// Cols returns the column player's strategy count.
func (g *Bimatrix) Cols() int { return len(g.A[0]) }

// IsZeroSum reports whether B = -A.
func (g *Bimatrix) IsZeroSum() bool {
	for i := range g.A {
		for j := range g.A[i] {
			if g.A[i][j]+g.B[i][j] != 0 {
				return false
			}
		}
	}
	return true
}

// PureNash returns all pure-strategy Nash equilibria as (row, col) pairs.
func (g *Bimatrix) PureNash() [][2]int {
	var out [][2]int
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			best := true
			for i2 := 0; i2 < g.Rows() && best; i2++ {
				if g.A[i2][j] > g.A[i][j] {
					best = false
				}
			}
			for j2 := 0; j2 < g.Cols() && best; j2++ {
				if g.B[i][j2] > g.B[i][j] {
					best = false
				}
			}
			if best {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// IteratedBestResponse alternates exact best responses from the given
// start profile; it returns the final profile and whether it converged (a
// fixed point — necessarily a pure Nash) within maxRounds.
func (g *Bimatrix) IteratedBestResponse(startRow, startCol, maxRounds int) (row, col int, converged bool) {
	row, col = startRow, startCol
	if row < 0 || row >= g.Rows() || col < 0 || col >= g.Cols() {
		row, col = 0, 0
	}
	for r := 0; r < maxRounds; r++ {
		bestR := row
		for i := 0; i < g.Rows(); i++ {
			if g.A[i][col] > g.A[bestR][col] {
				bestR = i
			}
		}
		bestC := col
		for j := 0; j < g.Cols(); j++ {
			if g.B[bestR][j] > g.B[bestR][bestC] {
				bestC = j
			}
		}
		if bestR == row && bestC == col {
			return row, col, true
		}
		row, col = bestR, bestC
	}
	return row, col, false
}

// Mixed is a mixed-strategy profile with the empirical value each player
// receives.
type Mixed struct {
	Row, Col     []float64
	RowVal       float64
	ColVal       float64
	RoundsPlayed int
}

// FictitiousPlay runs simultaneous fictitious play for rounds iterations:
// each player best-responds to the opponent's empirical mixture. For
// zero-sum games the empirical mixtures converge to a minimax solution
// (Robinson 1951); for general games they are a useful heuristic.
func (g *Bimatrix) FictitiousPlay(rounds int, seed int64) *Mixed {
	rng := stats.NewRNG(seed)
	nr, nc := g.Rows(), g.Cols()
	countR := make([]float64, nr)
	countC := make([]float64, nc)
	// Seed with one random joint play.
	countR[rng.Intn(nr)]++
	countC[rng.Intn(nc)]++
	for r := 1; r < rounds; r++ {
		// Row best-responds to column empirical mixture.
		bestI, bestV := 0, math.Inf(-1)
		for i := 0; i < nr; i++ {
			v := 0.0
			for j := 0; j < nc; j++ {
				v += countC[j] * g.A[i][j]
			}
			if v > bestV {
				bestI, bestV = i, v
			}
		}
		bestJ, bestW := 0, math.Inf(-1)
		for j := 0; j < nc; j++ {
			w := 0.0
			for i := 0; i < nr; i++ {
				w += countR[i] * g.B[i][j]
			}
			if w > bestW {
				bestJ, bestW = j, w
			}
		}
		countR[bestI]++
		countC[bestJ]++
	}
	out := &Mixed{
		Row: normalize(countR), Col: normalize(countC),
		RoundsPlayed: rounds,
	}
	for i := 0; i < nr; i++ {
		for j := 0; j < nc; j++ {
			p := out.Row[i] * out.Col[j]
			out.RowVal += p * g.A[i][j]
			out.ColVal += p * g.B[i][j]
		}
	}
	return out
}

func normalize(xs []float64) []float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	out := make([]float64, len(xs))
	if s == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / s
	}
	return out
}

// SocialOptimum returns the profile maximizing the sum of payoffs — the
// single-player (fully cooperative) benchmark of Section IV-A.
func (g *Bimatrix) SocialOptimum() (row, col int, welfare float64) {
	welfare = math.Inf(-1)
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			if w := g.A[i][j] + g.B[i][j]; w > welfare {
				row, col, welfare = i, j, w
			}
		}
	}
	return row, col, welfare
}

// PriceOfMisalignment compares the welfare of the worst pure Nash
// equilibrium to the social optimum: welfare(optimum) / welfare(worst
// equilibrium). It returns 1 when no pure equilibrium exists or welfare
// signs make the ratio meaningless — callers should inspect equilibria
// directly in those cases.
func (g *Bimatrix) PriceOfMisalignment() float64 {
	eqs := g.PureNash()
	if len(eqs) == 0 {
		return 1
	}
	_, _, opt := g.SocialOptimum()
	worst := math.Inf(1)
	for _, e := range eqs {
		if w := g.A[e[0]][e[1]] + g.B[e[0]][e[1]]; w < worst {
			worst = w
		}
	}
	if worst <= 0 || opt <= 0 {
		return 1
	}
	return opt / worst
}

// Point is a vector payoff for Pareto analysis.
type Point struct {
	Label  string
	Values []float64 // higher is better in every coordinate
}

// ParetoFront returns the non-dominated subset of points (maximization).
// A point is dominated if another is >= in all coordinates and > in one.
func ParetoFront(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if dominates(q.Values, p.Values) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

func dominates(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	strict := false
	for k := range a {
		if a[k] < b[k] {
			return false
		}
		if a[k] > b[k] {
			strict = true
		}
	}
	return strict
}

// SequentialGame is a two-stage game of imperfect information: the leader
// moves first; the follower observes only a signal of the leader's action
// (Signal[i][s] = probability of signal s given leader action i) and picks
// a response per signal. Payoffs are bimatrix-style over (leader action,
// follower action).
type SequentialGame struct {
	Leader   *Bimatrix   // A = leader payoff, B = follower payoff
	Signal   [][]float64 // rows = leader actions, cols = signals; rows sum to 1
	NumSigns int
}

// NewSequentialGame validates the signal structure.
func NewSequentialGame(g *Bimatrix, signal [][]float64) (*SequentialGame, error) {
	if len(signal) != g.Rows() {
		return nil, fmt.Errorf("game: %d signal rows for %d leader actions", len(signal), g.Rows())
	}
	if len(signal) == 0 || len(signal[0]) == 0 {
		return nil, errors.New("game: empty signal matrix")
	}
	ns := len(signal[0])
	for i, row := range signal {
		if len(row) != ns {
			return nil, fmt.Errorf("game: ragged signal matrix at row %d", i)
		}
		sum := 0.0
		for _, p := range row {
			if p < -1e-12 {
				return nil, fmt.Errorf("game: negative signal probability at row %d", i)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("game: signal row %d sums to %g, want 1", i, sum)
		}
	}
	return &SequentialGame{Leader: g, Signal: signal, NumSigns: ns}, nil
}

// Solution of a sequential game: the leader's action, the follower's
// policy (signal -> action), and both equilibrium payoffs.
type Solution struct {
	LeaderAction   int
	FollowerPolicy []int
	LeaderPayoff   float64
	FollowerPayoff float64
}

// Solve computes a perfect-Bayesian-style equilibrium by policy iteration:
// starting from a uniform belief, the follower best-responds per signal
// given beliefs derived from the leader's current (pure) strategy with
// uniform trembles, and the leader best-responds to the follower policy;
// iterate to a fixed point or maxRounds.
//
// With a fully informative signal this reduces to a Stackelberg
// equilibrium; with an uninformative signal it collapses to the
// simultaneous game — the paper's spectrum between aligned optimization
// and blind play.
func (sg *SequentialGame) Solve(maxRounds int) *Solution {
	g := sg.Leader
	nr, nc, ns := g.Rows(), g.Cols(), sg.NumSigns
	leader := 0
	policy := make([]int, ns)
	const tremble = 0.1

	followerBR := func(leaderAct int) []int {
		// Belief over leader actions given signal: tremble-mixed prior.
		prior := make([]float64, nr)
		for i := range prior {
			prior[i] = tremble / float64(nr)
		}
		prior[leaderAct] += 1 - tremble
		pol := make([]int, ns)
		for s := 0; s < ns; s++ {
			// Posterior ∝ prior_i * Signal[i][s].
			post := make([]float64, nr)
			tot := 0.0
			for i := 0; i < nr; i++ {
				post[i] = prior[i] * sg.Signal[i][s]
				tot += post[i]
			}
			if tot == 0 {
				// Off-path signal: keep prior.
				copy(post, prior)
				tot = 1
			}
			bestJ, bestV := 0, math.Inf(-1)
			for j := 0; j < nc; j++ {
				v := 0.0
				for i := 0; i < nr; i++ {
					v += post[i] / tot * g.B[i][j]
				}
				if v > bestV {
					bestJ, bestV = j, v
				}
			}
			pol[s] = bestJ
		}
		return pol
	}
	leaderBR := func(pol []int) int {
		bestI, bestV := 0, math.Inf(-1)
		for i := 0; i < nr; i++ {
			v := 0.0
			for s := 0; s < ns; s++ {
				v += sg.Signal[i][s] * g.A[i][pol[s]]
			}
			if v > bestV {
				bestI, bestV = i, v
			}
		}
		return bestI
	}

	for r := 0; r < maxRounds; r++ {
		newPolicy := followerBR(leader)
		newLeader := leaderBR(newPolicy)
		same := newLeader == leader
		for s := range policy {
			if policy[s] != newPolicy[s] {
				same = false
			}
		}
		leader, policy = newLeader, newPolicy
		if same {
			break
		}
	}
	sol := &Solution{LeaderAction: leader, FollowerPolicy: policy}
	for s := 0; s < ns; s++ {
		p := sg.Signal[leader][s]
		sol.LeaderPayoff += p * g.A[leader][policy[s]]
		sol.FollowerPayoff += p * g.B[leader][policy[s]]
	}
	return sol
}

// NoisySignal interpolates between perfect and uninformative: with
// probability 1-eps the true action's signal fires, otherwise a uniform
// other signal.
func NoisySignal(n int, eps float64) [][]float64 {
	if eps < 0 {
		eps = 0
	}
	if eps > 1 {
		eps = 1
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for s := 0; s < n; s++ {
			if s == i {
				out[i][s] = 1 - eps
			} else if n > 1 {
				out[i][s] = eps / float64(n-1)
			}
		}
		if n == 1 {
			out[i][0] = 1
		}
	}
	return out
}
