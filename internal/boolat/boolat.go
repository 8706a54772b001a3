// Package boolat implements the Boolean lattice B_n of subsets of
// {1, ..., n} and its symmetric chain decompositions.
//
// The paper's Section III builds on de Bruijn's classic result [12] that B_n
// admits a symmetric chain decomposition (SCD): a partition of B_n into
// saturated chains C = (S_1 ⊂ S_2 ⊂ ... ⊂ S_k) with |S_{i+1}| = |S_i| + 1
// and |S_1| + |S_k| = n. The Loeb–Damiani–D'Antona construction (package
// chains) lifts such a decomposition of B_n to a maximal collection of
// disjoint symmetric chains in the partition lattice Π_{n+1}.
//
// Subsets are represented as bitmasks (Set), with bit i-1 standing for
// element i, so n is limited to 63 — far beyond anything explorable anyway.
package boolat

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Set is a subset of {1, ..., n} encoded as a bitmask: element i is present
// iff bit i-1 is set.
type Set uint64

// MaxN is the largest ground-set size representable.
const MaxN = 63

// SetOf builds a Set from explicit elements (1-based). It panics on
// out-of-range elements.
func SetOf(elems ...int) Set {
	var s Set
	for _, e := range elems {
		if e < 1 || e > MaxN {
			panic(fmt.Sprintf("boolat: element %d out of range [1,%d]", e, MaxN))
		}
		s |= 1 << uint(e-1)
	}
	return s
}

// Contains reports whether element e (1-based) is in s.
func (s Set) Contains(e int) bool { return e >= 1 && e <= MaxN && s&(1<<uint(e-1)) != 0 }

// Add returns s ∪ {e}.
func (s Set) Add(e int) Set {
	if e < 1 || e > MaxN {
		panic(fmt.Sprintf("boolat: element %d out of range [1,%d]", e, MaxN))
	}
	return s | 1<<uint(e-1)
}

// Remove returns s \ {e}.
func (s Set) Remove(e int) Set {
	if e < 1 || e > MaxN {
		return s
	}
	return s &^ (1 << uint(e-1))
}

// Card returns |s|.
func (s Set) Card() int { return bits.OnesCount64(uint64(s)) }

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// Elements returns the elements of s in increasing order (1-based).
func (s Set) Elements() []int {
	out := make([]int, 0, s.Card())
	for v := uint64(s); v != 0; {
		b := bits.TrailingZeros64(v)
		out = append(out, b+1)
		v &^= 1 << uint(b)
	}
	return out
}

// String renders s like "{1,3}" ("∅" when empty).
func (s Set) String() string {
	if s == 0 {
		return "∅"
	}
	parts := make([]string, 0, s.Card())
	for _, e := range s.Elements() {
		parts = append(parts, fmt.Sprint(e))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Chain is a sequence of sets strictly increasing under inclusion.
type Chain []Set

// IsSaturated reports whether consecutive sets differ by exactly one element
// (each covered by the next) and the chain is non-empty.
func (c Chain) IsSaturated() bool {
	if len(c) == 0 {
		return false
	}
	for i := 0; i+1 < len(c); i++ {
		if !c[i].SubsetOf(c[i+1]) || c[i+1].Card() != c[i].Card()+1 {
			return false
		}
	}
	return true
}

// IsSymmetric reports whether |first| + |last| = n (rank-symmetric in B_n).
func (c Chain) IsSymmetric(n int) bool {
	if len(c) == 0 {
		return false
	}
	return c[0].Card()+c[len(c)-1].Card() == n
}

// String renders the chain as "∅ ⊂ {1} ⊂ {1,2}".
func (c Chain) String() string {
	parts := make([]string, len(c))
	for i, s := range c {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ⊂ ")
}

// DeBruijnSCD returns de Bruijn's recursive symmetric chain decomposition of
// B_n. For n = 0 it returns the single chain (∅).
//
// The recursion: each chain (A_1, ..., A_k) of the decomposition of B_{n-1}
// yields the chain (A_1, ..., A_k, A_k ∪ {n}) and — when k > 1 — the chain
// (A_1 ∪ {n}, ..., A_{k-1} ∪ {n}) in B_n. Both are saturated and symmetric;
// together over all chains they cover B_n exactly once.
func DeBruijnSCD(n int) []Chain {
	if n < 0 || n > MaxN {
		panic(fmt.Sprintf("boolat: n = %d out of range [0,%d]", n, MaxN))
	}
	decomp := []Chain{{Set(0)}}
	for m := 1; m <= n; m++ {
		elem := Set(1) << uint(m-1)
		next := make([]Chain, 0, len(decomp)*2)
		for _, c := range decomp {
			long := make(Chain, 0, len(c)+1)
			long = append(long, c...)
			long = append(long, c[len(c)-1]|elem)
			next = append(next, long)
			if len(c) > 1 {
				short := make(Chain, 0, len(c)-1)
				for _, s := range c[:len(c)-1] {
					short = append(short, s|elem)
				}
				next = append(next, short)
			}
		}
		decomp = next
	}
	sortChains(decomp)
	return decomp
}

// AllSubsets returns all subsets of {1..n} in increasing bitmask order.
func AllSubsets(n int) []Set {
	if n < 0 || n > 24 {
		panic(fmt.Sprintf("boolat: AllSubsets n = %d out of range [0,24]", n))
	}
	out := make([]Set, 1<<uint(n))
	for i := range out {
		out[i] = Set(i)
	}
	return out
}

// sortChains orders chains by (cardinality of bottom set, bottom bitmask)
// for deterministic output.
func sortChains(chains []Chain) {
	sort.Slice(chains, func(i, j int) bool {
		a, b := chains[i][0], chains[j][0]
		if a.Card() != b.Card() {
			return a.Card() < b.Card()
		}
		if a != b {
			return a < b
		}
		return len(chains[i]) > len(chains[j])
	})
}
