package combinat

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestStirlingSecondKnownValues(t *testing.T) {
	tests := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1},
		{1, 0, 0},
		{1, 1, 1},
		{4, 1, 1},
		{4, 2, 7},
		{4, 3, 6},
		{4, 4, 1},
		{5, 2, 15},
		{5, 3, 25},
		{6, 3, 90},
		{7, 4, 350},
		{10, 5, 42525},
		{3, 5, 0},
		{-1, 2, 0},
		{4, -1, 0},
	}
	for _, tt := range tests {
		got, ok := StirlingSecondInt64(tt.n, tt.k)
		if !ok {
			t.Fatalf("S(%d,%d) overflowed int64", tt.n, tt.k)
		}
		if got != tt.want {
			t.Errorf("S(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestBellKnownValues(t *testing.T) {
	// OEIS A000110.
	want := []int64{1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597}
	for n, w := range want {
		got, ok := BellInt64(n)
		if !ok {
			t.Fatalf("B(%d) overflowed", n)
		}
		if got != w {
			t.Errorf("B(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestBellInt64MatchesBell(t *testing.T) {
	for n := 0; n <= 25; n++ {
		got, ok := BellInt64(n)
		if !ok || !Bell(n).IsInt64() || got != Bell(n).Int64() {
			t.Errorf("BellInt64(%d) = %d, %v; Bell(%d) = %s", n, got, ok, n, Bell(n))
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { BellInt64(25) }); allocs != 0 {
		t.Errorf("BellInt64 allocates %v times per call", allocs)
	}
}

func TestBellLarge(t *testing.T) {
	// B(25) fits in int64, B(26) does not.
	if _, ok := BellInt64(25); !ok {
		t.Error("B(25) should fit in int64")
	}
	if _, ok := BellInt64(26); ok {
		t.Error("B(26) should not fit in int64")
	}
	// B(30) from OEIS.
	want, _ := new(big.Int).SetString("846749014511809332450147", 10)
	if got := Bell(30); got.Cmp(want) != 0 {
		t.Errorf("B(30) = %s, want %s", got, want)
	}
}

func TestBinomialKnownValues(t *testing.T) {
	tests := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{52, 5, 2598960}, {5, 6, 0}, {5, -1, 0},
	}
	for _, tt := range tests {
		got, ok := BinomialInt64(tt.n, tt.k)
		if !ok {
			t.Fatalf("C(%d,%d) overflow", tt.n, tt.k)
		}
		if got != tt.want {
			t.Errorf("C(%d,%d) = %d, want %d", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestWhitneyPartitionLatticeFigure2(t *testing.T) {
	// Figure 2 of the paper: the lattice of partitions of a 4-element set
	// has level sizes 1, 7, 6, 1 by rank (rank i has 4-i blocks)...
	// wait: rank 0 = finest = 4 blocks = S(4,4) = 1; rank 1 = 3 blocks = 6;
	// rank 2 = 2 blocks = 7; rank 3 = 1 block = 1.
	w := WhitneyPartitionLattice(4)
	want := []int64{1, 6, 7, 1}
	if len(w) != len(want) {
		t.Fatalf("len = %d, want %d", len(w), len(want))
	}
	total := int64(0)
	for i, v := range w {
		if v.Int64() != want[i] {
			t.Errorf("W[%d] = %s, want %d", i, v, want[i])
		}
		total += v.Int64()
	}
	if total != 15 {
		t.Errorf("total partitions of 4-set = %d, want 15 (Bell(4))", total)
	}
}

func TestLatticeAsymmetryClaim(t *testing.T) {
	// Paper: "there are 2^(n-1)-1 partitions of an n-set into two blocks,
	// but only n(n-1)/2 partitions of an n-set into n-1 blocks."
	for n := 3; n <= 20; n++ {
		two := TwoBlockPartitions(n)
		near := NearTopPartitions(n)
		if s := StirlingSecond(n, 2); two.Cmp(s) != 0 {
			t.Errorf("n=%d: TwoBlockPartitions = %s, S(n,2) = %s", n, two, s)
		}
		if s := StirlingSecond(n, n-1); near.Cmp(s) != 0 {
			t.Errorf("n=%d: NearTopPartitions = %s, S(n,n-1) = %s", n, near, s)
		}
		if n >= 3 && two.Cmp(near) <= 0 && n > 4 {
			t.Errorf("n=%d: expected 2^(n-1)-1 > n(n-1)/2 for n > 4", n)
		}
	}
}

func TestCompositionsCountAndOrder(t *testing.T) {
	for n := 0; n <= 10; n++ {
		comps := Compositions(n)
		want := 1
		if n > 0 {
			want = 1 << (n - 1)
		}
		if len(comps) != want {
			t.Errorf("n=%d: %d compositions, want %d", n, len(comps), want)
		}
		seen := map[string]bool{}
		for _, c := range comps {
			sum := 0
			key := ""
			for _, p := range c {
				if p <= 0 {
					t.Fatalf("n=%d: non-positive part in %v", n, c)
				}
				sum += p
				key += string(rune('0' + p))
			}
			if sum != n {
				t.Errorf("n=%d: composition %v sums to %d", n, c, sum)
			}
			if seen[key] {
				t.Errorf("n=%d: duplicate composition %v", n, c)
			}
			seen[key] = true
		}
	}
}

func TestCountPartitionsOfOrderedType(t *testing.T) {
	// Types from Table I of the paper (compositions of 4) and their counts.
	tests := []struct {
		comp []int
		want int64
	}{
		{[]int{1, 1, 1, 1}, 1},
		{[]int{1, 1, 2}, 1},
		{[]int{1, 3}, 1},
		{[]int{4}, 1},
		{[]int{1, 2, 1}, 2},
		{[]int{3, 1}, 3},
		{[]int{2, 1, 1}, 3},
		{[]int{2, 2}, 3},
	}
	total := int64(0)
	for _, tt := range tests {
		got := CountPartitionsOfOrderedType(tt.comp)
		if got.Int64() != tt.want {
			t.Errorf("count(%v) = %s, want %d", tt.comp, got, tt.want)
		}
		total += got.Int64()
	}
	if total != 15 {
		t.Errorf("types of compositions of 4 cover %d partitions, want 15", total)
	}
}

func TestCountPartitionsOfOrderedTypeSumsToBell(t *testing.T) {
	// Summing counts over all compositions of n must give Bell(n): every set
	// partition has a unique min-ordered block-size composition.
	for n := 1; n <= 9; n++ {
		sum := big.NewInt(0)
		for _, comp := range Compositions(n) {
			sum.Add(sum, CountPartitionsOfOrderedType(comp))
		}
		if b := Bell(n); sum.Cmp(b) != 0 {
			t.Errorf("n=%d: sum over types = %s, Bell = %s", n, sum, b)
		}
	}
}

func TestStirlingRecurrenceProperty(t *testing.T) {
	// Property: S(n,k) = k*S(n-1,k) + S(n-1,k-1) checked via an independent
	// path: the inclusion-exclusion formula S(n,k) = (1/k!) sum_j (-1)^j C(k,j) (k-j)^n.
	f := func(n8, k8 uint8) bool {
		n := int(n8%12) + 1
		k := int(k8%12) + 1
		if k > n {
			n, k = k, n
		}
		viaIE := big.NewInt(0)
		for j := 0; j <= k; j++ {
			term := new(big.Int).Exp(big.NewInt(int64(k-j)), big.NewInt(int64(n)), nil)
			term.Mul(term, Binomial(k, j))
			if j%2 == 1 {
				term.Neg(term)
			}
			viaIE.Add(viaIE, term)
		}
		viaIE.Div(viaIE, new(big.Int).MulRange(1, int64(k))) // k!
		return viaIE.Cmp(StirlingSecond(n, k)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// WhitneyPartitionLattice returns the Whitney numbers (level sizes) of the
// partition lattice Π(S) for |S| = n, indexed by rank: the number of
// partitions of rank i is S(n, n-i), for i = 0..n-1.
//
// These are the level counts the paper's Figure 2 displays for n = 4:
// (1, 6, 7, 1) at ranks 0..3 — note rank i partitions have n-i blocks.
func WhitneyPartitionLattice(n int) []*big.Int {
	if n <= 0 {
		return nil
	}
	row := StirlingSecondRow(n)
	w := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		w[i] = new(big.Int).Set(row[n-i])
	}
	return w
}

// TestInt64Overflow: the int64 convenience forms return the exact value
// right up to the int64 limit and report overflow past it, never a
// wrapped value.
func TestInt64Overflow(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func() (int64, bool)
		want int64
		ok   bool
	}{
		{"binomial-fits", func() (int64, bool) { return BinomialInt64(66, 33) }, 7219428434016265740, true},
		{"binomial-overflows", func() (int64, bool) { return BinomialInt64(67, 33) }, 0, false},
		{"stirling-fits", func() (int64, bool) { return StirlingSecondInt64(26, 26) }, 1, true},
		{"stirling-overflows", func() (int64, bool) { return StirlingSecondInt64(26, 10) }, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, ok := c.f()
			if got != c.want || ok != c.ok {
				t.Errorf("got (%d, %v), want (%d, %v)", got, ok, c.want, c.ok)
			}
		})
	}
}

// TestLevelCountsBelowTwo: below n = 2 the closed forms must not be
// extrapolated; both counts agree with S(n, 2) and S(n, n-1), which are 0.
func TestLevelCountsBelowTwo(t *testing.T) {
	for n := 0; n < 2; n++ {
		if got, want := TwoBlockPartitions(n), StirlingSecond(n, 2); got.Cmp(want) != 0 {
			t.Errorf("TwoBlockPartitions(%d) = %s, want %s", n, got, want)
		}
		if got, want := NearTopPartitions(n), StirlingSecond(n, n-1); got.Cmp(want) != 0 {
			t.Errorf("NearTopPartitions(%d) = %s, want %s", n, got, want)
		}
	}
}
