package boolat

// Test-only oracles for the symmetric-chain-decomposition claims: an
// independent construction to cross-check DeBruijnSCD, and a validity
// checker for any decomposition.

import "fmt"

// GreeneKleitmanSCD returns the bracketing (Greene–Kleitman) symmetric chain
// decomposition of B_n, an independent construction used to cross-check
// DeBruijnSCD in tests.
//
// View a set as a bracket word at positions 1..n: absent = "(" and
// present = ")". Match each ")" with the nearest preceding unmatched "(".
// The unmatched positions then read ")...)(...(", and the chain through the
// set consists of all sets sharing its matched pairs, obtained by flipping
// the unmatched positions to ")" (= present) left to right: the bottom has
// all unmatched positions absent, the top has them all present.
func GreeneKleitmanSCD(n int) []Chain {
	if n < 0 || n > MaxN {
		panic(fmt.Sprintf("boolat: n = %d out of range [0,%d]", n, MaxN))
	}
	seen := make(map[Set]bool)
	var decomp []Chain
	for v := Set(0); v < Set(1)<<uint(n); v++ {
		if seen[v] {
			continue
		}
		c := gkChainThrough(v, n)
		for _, s := range c {
			seen[s] = true
		}
		decomp = append(decomp, c)
	}
	// The loop runs over raw values; for n = 0 the loop body never runs.
	if n == 0 {
		decomp = []Chain{{Set(0)}}
	}
	sortChains(decomp)
	return decomp
}

// gkChainThrough returns the full Greene–Kleitman chain containing s.
func gkChainThrough(s Set, n int) Chain {
	matchedMask := gkMatchedMask(s, n)
	// Unmatched positions, left to right.
	var unmatched []int
	for e := 1; e <= n; e++ {
		if matchedMask&(1<<uint(e-1)) == 0 {
			unmatched = append(unmatched, e)
		}
	}
	// Bottom of chain: matched bits as in s, all unmatched bits cleared.
	bottom := s & matchedMask
	chain := Chain{bottom}
	cur := bottom
	for _, e := range unmatched {
		cur = cur.Add(e)
		chain = append(chain, cur)
	}
	return chain
}

// gkMatchedMask returns the mask of positions participating in a matched
// bracket pair of s, with absent positions acting as "(" and present
// positions as ")": each present element is matched with the nearest
// preceding unmatched absent position.
func gkMatchedMask(s Set, n int) Set {
	var stack []int
	var mask Set
	for e := 1; e <= n; e++ {
		if !s.Contains(e) {
			stack = append(stack, e)
		} else if len(stack) > 0 {
			open := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			mask = mask.Add(open).Add(e)
		}
	}
	return mask
}

// VerifySCD checks that chains form a valid symmetric chain decomposition of
// B_n: every chain saturated and symmetric, chains disjoint, union = B_n.
// It returns nil when valid.
func VerifySCD(chains []Chain, n int) error {
	if n > 24 {
		return fmt.Errorf("boolat: VerifySCD limited to n <= 24 (2^n membership table), got %d", n)
	}
	seen := make([]bool, 1<<uint(n))
	total := 0
	for i, c := range chains {
		if !c.IsSaturated() {
			return fmt.Errorf("boolat: chain %d (%s) is not saturated", i, c)
		}
		if !c.IsSymmetric(n) {
			return fmt.Errorf("boolat: chain %d (%s) is not symmetric in B_%d", i, c, n)
		}
		for _, s := range c {
			if uint64(s) >= uint64(len(seen)) {
				return fmt.Errorf("boolat: chain %d contains %s outside B_%d", i, s, n)
			}
			if seen[s] {
				return fmt.Errorf("boolat: %s appears in two chains", s)
			}
			seen[s] = true
			total++
		}
	}
	if total != 1<<uint(n) {
		return fmt.Errorf("boolat: decomposition covers %d of %d subsets", total, 1<<uint(n))
	}
	return nil
}
