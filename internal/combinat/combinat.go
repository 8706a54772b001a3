// Package combinat provides the combinatorial substrate used throughout the
// repository: binomial coefficients, Stirling numbers of the second kind,
// Bell numbers, Whitney numbers of the partition lattice, and generators for
// integer compositions.
//
// Section III of the paper measures the cost of exhaustively exploring the
// partition lattice in terms of sums of Stirling numbers of the second kind
// (whose totals are Bell numbers), and contrasts it with a chain-based search
// that is linear in the number of features. The functions here provide those
// reference quantities, both as exact big.Int values (any n) and as int64
// convenience values (small n, with explicit overflow reporting).
package combinat

import "math/big"

// Binomial returns C(n, k) as a big.Int. It returns zero for k < 0 or k > n.
func Binomial(n, k int) *big.Int {
	if k < 0 || k > n || n < 0 {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// BinomialInt64 returns C(n, k) as an int64 and reports whether the value
// fits without overflow.
func BinomialInt64(n, k int) (int64, bool) {
	b := Binomial(n, k)
	if !b.IsInt64() {
		return 0, false
	}
	return b.Int64(), true
}

// StirlingSecond returns S(n, k), the number of ways to partition an n-set
// into exactly k nonempty blocks, as a big.Int.
//
// S(0, 0) = 1; S(n, 0) = 0 for n > 0; S(n, k) = 0 for k > n.
func StirlingSecond(n, k int) *big.Int {
	if n < 0 || k < 0 {
		return big.NewInt(0)
	}
	row := StirlingSecondRow(n)
	if k >= len(row) {
		return big.NewInt(0)
	}
	return new(big.Int).Set(row[k])
}

// StirlingSecondRow returns the full row [S(n,0), S(n,1), ..., S(n,n)].
func StirlingSecondRow(n int) []*big.Int {
	row := make([]*big.Int, 1, n+1)
	row[0] = big.NewInt(1) // S(0,0) = 1
	for m := 1; m <= n; m++ {
		next := make([]*big.Int, m+1)
		next[0] = big.NewInt(0)
		for k := 1; k <= m; k++ {
			// S(m, k) = k*S(m-1, k) + S(m-1, k-1)
			t := big.NewInt(0)
			if k < len(row) {
				t.Mul(big.NewInt(int64(k)), row[k])
			}
			t.Add(t, row[k-1])
			next[k] = t
		}
		row = next
	}
	return row
}

// StirlingSecondInt64 returns S(n, k) as an int64 and reports whether it
// fits without overflow.
func StirlingSecondInt64(n, k int) (int64, bool) {
	s := StirlingSecond(n, k)
	if !s.IsInt64() {
		return 0, false
	}
	return s.Int64(), true
}

// Bell returns the n-th Bell number B(n) = sum_k S(n, k), the total number of
// partitions of an n-set, as a big.Int.
func Bell(n int) *big.Int {
	sum := big.NewInt(0)
	for _, s := range StirlingSecondRow(n) {
		sum.Add(sum, s)
	}
	return sum
}

// BellInt64 returns B(n) as an int64 and reports whether it fits. B(25) is
// the largest Bell number representable in an int64. It runs the Bell
// triangle in int64 — row r starts with B(r) and ends with B(r+1), so rows
// 0..n-1 end in B(n) and never overflow — and allocates nothing, so a
// search can check a cone's size on every call.
func BellInt64(n int) (int64, bool) {
	if n < 0 || n > 25 {
		return 0, false
	}
	if n == 0 {
		return 1, true
	}
	var prev, next [25]int64
	prev[0] = 1
	for r := 1; r < n; r++ {
		next[0] = prev[r-1]
		for j := 1; j <= r; j++ {
			next[j] = next[j-1] + prev[j-1]
		}
		prev = next
	}
	return prev[n-1], true
}

// TwoBlockPartitions returns 2^(n-1) - 1, the number of partitions of an
// n-set into exactly two blocks (S(n, 2)). The paper contrasts this count
// with the n(n-1)/2 partitions into n-1 blocks to show the partition lattice
// is not rank-symmetric for n >= 3.
func TwoBlockPartitions(n int) *big.Int {
	if n < 2 {
		return big.NewInt(0)
	}
	v := new(big.Int).Lsh(big.NewInt(1), uint(n-1))
	return v.Sub(v, big.NewInt(1))
}

// NearTopPartitions returns n(n-1)/2, the number of partitions of an n-set
// into exactly n-1 blocks (S(n, n-1)): one pair merged, all else singletons.
func NearTopPartitions(n int) *big.Int {
	if n < 2 {
		return big.NewInt(0)
	}
	return big.NewInt(int64(n) * int64(n-1) / 2)
}

// Compositions returns all compositions (ordered sequences of positive
// integers) of n, in lexicographic order. There are 2^(n-1) of them.
//
// Compositions of n+1 are in bijection with subsets of an n-set via the
// paper's encoding c(S) (see package chains); this generator provides the
// codomain of that bijection for verification.
func Compositions(n int) [][]int {
	if n < 0 {
		return nil
	}
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	comp := []int{}
	var rec func(rem int)
	rec = func(rem int) {
		if rem == 0 {
			out = append(out, append([]int(nil), comp...))
			return
		}
		for first := 1; first <= rem; first++ {
			comp = append(comp, first)
			rec(rem - first)
			comp = comp[:len(comp)-1]
		}
	}
	rec(n)
	return out
}

// CountPartitionsOfOrderedType returns the number of set partitions of
// {1..n} whose blocks, ordered by increasing minimum element, have sizes
// exactly comp (a composition of n).
//
// The count follows the greedy construction: the first block must contain
// the global minimum plus comp[0]-1 of the remaining n-1 elements; the second
// block contains the smallest leftover plus comp[1]-1 of the rest; and so on:
//
//	prod_i C(remaining_i - 1, comp[i] - 1)
func CountPartitionsOfOrderedType(comp []int) *big.Int {
	n := 0
	for _, c := range comp {
		n += c
	}
	count := big.NewInt(1)
	rem := n
	for _, c := range comp {
		count.Mul(count, Binomial(rem-1, c-1))
		rem -= c
	}
	return count
}
