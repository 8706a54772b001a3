package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/combinat"
)

func mustParse(t *testing.T, s string) Partition {
	t.Helper()
	p, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return p
}

func TestFinestCoarsest(t *testing.T) {
	f := Finest(4)
	if f.NumBlocks() != 4 || f.Rank() != 0 {
		t.Errorf("Finest: blocks=%d rank=%d", f.NumBlocks(), f.Rank())
	}
	c := Coarsest(4)
	if c.NumBlocks() != 1 || c.Rank() != 3 {
		t.Errorf("Coarsest: blocks=%d rank=%d", c.NumBlocks(), c.Rank())
	}
	if f.String() != "1/2/3/4" {
		t.Errorf("Finest String = %q", f.String())
	}
	if c.String() != "1234" {
		t.Errorf("Coarsest String = %q", c.String())
	}
}

func TestParseAndString(t *testing.T) {
	for _, s := range []string{"1/23/4", "12/34", "1234", "1/2/3/4", "134/2"} {
		p := mustParse(t, s)
		if p.String() != s {
			t.Errorf("round trip %q -> %q", s, p.String())
		}
	}
	// Comma form for n > 9.
	p := mustParse(t, "1,10/2,3,4,5,6,7,8,9")
	if p.N() != 10 || p.NumBlocks() != 2 {
		t.Errorf("comma parse: n=%d blocks=%d", p.N(), p.NumBlocks())
	}
	if !p.SameBlock(1, 10) {
		t.Error("1 and 10 should share a block")
	}
	for _, bad := range []string{"", "1//2", "1/a", "0/1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestFromBlocksValidation(t *testing.T) {
	if _, err := FromBlocks(3, [][]int{{1, 2}}); err == nil {
		t.Error("uncovered element should fail")
	}
	if _, err := FromBlocks(3, [][]int{{1, 2}, {2, 3}}); err == nil {
		t.Error("overlapping blocks should fail")
	}
	if _, err := FromBlocks(3, [][]int{{1, 2, 3}, {}}); err == nil {
		t.Error("empty block should fail")
	}
	if _, err := FromBlocks(3, [][]int{{1, 2, 4}}); err == nil {
		t.Error("out of range element should fail")
	}
}

func TestRefines(t *testing.T) {
	fine := mustParse(t, "1/2/3/4")
	mid := mustParse(t, "1/23/4")
	top := mustParse(t, "1234")
	other := mustParse(t, "12/3/4")
	if !fine.Refines(mid) || !mid.Refines(top) || !fine.Refines(top) {
		t.Error("refinement chain broken")
	}
	if mid.Refines(fine) {
		t.Error("coarser should not refine finer")
	}
	if mid.Refines(other) || other.Refines(mid) {
		t.Error("incomparable partitions misordered")
	}
	if !mid.Refines(mid) {
		t.Error("refinement must be reflexive")
	}
}

func TestMeetJoin(t *testing.T) {
	a := mustParse(t, "12/34")
	b := mustParse(t, "13/24")
	meet := a.Meet(b)
	if meet.String() != "1/2/3/4" {
		t.Errorf("Meet = %s, want 1/2/3/4", meet)
	}
	join := a.Join(b)
	if join.String() != "1234" {
		t.Errorf("Join = %s, want 1234", join)
	}
	c := mustParse(t, "12/3/4")
	d := mustParse(t, "1/2/34")
	if got := c.Join(d).String(); got != "12/34" {
		t.Errorf("Join = %s, want 12/34", got)
	}
	if got := c.Meet(d).String(); got != "1/2/3/4" {
		t.Errorf("Meet = %s, want 1/2/3/4", got)
	}
}

func TestLatticeLawsProperty(t *testing.T) {
	// Absorption and idempotence on random partition pairs of a 6-set.
	all := All(6)
	f := func(ai, bi uint16) bool {
		a := all[int(ai)%len(all)]
		b := all[int(bi)%len(all)]
		if !a.Meet(a).Equal(a) || !a.Join(a).Equal(a) {
			return false
		}
		// a ∧ (a ∨ b) = a; a ∨ (a ∧ b) = a.
		if !a.Meet(a.Join(b)).Equal(a) {
			return false
		}
		if !a.Join(a.Meet(b)).Equal(a) {
			return false
		}
		// Commutativity.
		if !a.Meet(b).Equal(b.Meet(a)) || !a.Join(b).Equal(b.Join(a)) {
			return false
		}
		// Meet refines both; both refine join.
		m, j := a.Meet(b), a.Join(b)
		return m.Refines(a) && m.Refines(b) && a.Refines(j) && b.Refines(j)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAllCountsAreBellNumbers(t *testing.T) {
	for n := 1; n <= 9; n++ {
		want, _ := combinat.BellInt64(n)
		got := All(n)
		if int64(len(got)) != want {
			t.Errorf("|All(%d)| = %d, want Bell = %d", n, len(got), want)
		}
		seen := map[string]bool{}
		for _, p := range got {
			if seen[p.Key()] {
				t.Fatalf("duplicate partition %s", p)
			}
			seen[p.Key()] = true
		}
	}
}

func TestFigure2LevelSizes(t *testing.T) {
	// Figure 2 of the paper: Π_4 has 15 partitions; level sizes by rank are
	// 1, 6, 7, 1.
	all := All(4)
	if len(all) != 15 {
		t.Fatalf("|Π_4| = %d, want 15", len(all))
	}
	byRank := map[int]int{}
	for _, p := range all {
		byRank[p.Rank()]++
	}
	want := map[int]int{0: 1, 1: 6, 2: 7, 3: 1}
	for r, w := range want {
		if byRank[r] != w {
			t.Errorf("rank %d: %d partitions, want %d", r, byRank[r], w)
		}
	}
}

func TestUpperCovers(t *testing.T) {
	p := mustParse(t, "1/23/4")
	ups := p.UpperCovers()
	if len(ups) != 3 {
		t.Fatalf("got %d upper covers, want 3", len(ups))
	}
	wantSet := map[string]bool{"123/4": true, "1/234": true, "14/23": true}
	for _, u := range ups {
		if !wantSet[u.String()] {
			t.Errorf("unexpected upper cover %s", u)
		}
		if u.Rank() != p.Rank()+1 {
			t.Errorf("cover %s has rank %d, want %d", u, u.Rank(), p.Rank()+1)
		}
		if !p.Refines(u) {
			t.Errorf("%s should refine %s", p, u)
		}
	}
}

func TestLowerCovers(t *testing.T) {
	p := mustParse(t, "123/4")
	downs := p.LowerCovers()
	// Splitting {1,2,3} into two nonempty parts: 2^2 - 1 = 3 ways.
	if len(downs) != 3 {
		t.Fatalf("got %d lower covers, want 3", len(downs))
	}
	wantSet := map[string]bool{"1/23/4": true, "12/3/4": true, "13/2/4": true}
	for _, d := range downs {
		if !wantSet[d.String()] {
			t.Errorf("unexpected lower cover %s", d)
		}
		if !d.Refines(p) || d.Rank() != p.Rank()-1 {
			t.Errorf("bad lower cover %s", d)
		}
	}
}

func TestCoversConsistencyProperty(t *testing.T) {
	// For random p in Π_6: q ∈ UpperCovers(p) iff p ∈ LowerCovers(q).
	all := All(6)
	f := func(pi uint16) bool {
		p := all[int(pi)%len(all)]
		for _, q := range p.UpperCovers() {
			found := false
			for _, d := range q.LowerCovers() {
				if d.Equal(p) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
			if !p.Covers(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestHasseEdgesPi4(t *testing.T) {
	all := All(4)
	edges := HasseEdges(all)
	// Number of cover relations in Π_n: sum over partitions of C(b,2) where
	// b = #blocks: rank0 (4 blocks): C(4,2)=6; rank1 (6 partitions, 3
	// blocks): 6*3=18; rank2 (7 partitions, 2 blocks): 7*1=7; top: 0.
	// Total = 31.
	if len(edges) != 31 {
		t.Errorf("|Hasse edges of Π_4| = %d, want 31", len(edges))
	}
	for _, e := range edges {
		p, q := all[e[0]], all[e[1]]
		if !p.Covers(q) {
			t.Errorf("edge %s -> %s is not a cover", p, q)
		}
	}
}

func TestOfOrderedTypeTable1Rows(t *testing.T) {
	// Exact partition lists from Table I of the paper.
	tests := []struct {
		comp []int
		want []string
	}{
		{[]int{1, 1, 1, 1}, []string{"1/2/3/4"}},
		{[]int{1, 1, 2}, []string{"1/2/34"}},
		{[]int{1, 3}, []string{"1/234"}},
		{[]int{4}, []string{"1234"}},
		{[]int{1, 2, 1}, []string{"1/23/4", "1/24/3"}},
		{[]int{3, 1}, []string{"123/4", "124/3", "134/2"}},
		{[]int{2, 1, 1}, []string{"12/3/4", "13/2/4", "14/2/3"}},
		{[]int{2, 2}, []string{"12/34", "13/24", "14/23"}},
	}
	for _, tt := range tests {
		got := OfOrderedType(tt.comp)
		if len(got) != len(tt.want) {
			t.Errorf("type %v: %d partitions, want %d", tt.comp, len(got), len(tt.want))
			continue
		}
		for i, w := range tt.want {
			if got[i].String() != w {
				t.Errorf("type %v[%d] = %s, want %s", tt.comp, i, got[i], w)
			}
		}
	}
}

func TestOfOrderedTypeMatchesCount(t *testing.T) {
	for _, comp := range combinat.Compositions(6) {
		want := combinat.CountPartitionsOfOrderedType(comp)
		if got := len(OfOrderedType(comp)); int64(got) != want.Int64() {
			t.Errorf("type %v: enumerated %d, formula %s", comp, got, want)
		}
	}
}

func TestMergeBlocks(t *testing.T) {
	p := mustParse(t, "1/23/4")
	m := p.MergeBlocks(0, 2)
	if m.String() != "14/23" {
		t.Errorf("MergeBlocks = %s, want 14/23", m)
	}
	if got := p.MergeBlocks(1, 1); !got.Equal(p) {
		t.Error("merging a block with itself should be identity")
	}
}

func TestKeyUniqueness(t *testing.T) {
	all := All(7)
	seen := map[string]bool{}
	for _, p := range all {
		if seen[p.Key()] {
			t.Fatalf("Key collision for %s", p)
		}
		seen[p.Key()] = true
	}
}

// TestConstructorsPanicOnInvalid: the panicking constructors and accessors
// refuse malformed input loudly instead of building a bogus partition.
func TestConstructorsPanicOnInvalid(t *testing.T) {
	p := mustParse(t, "12/3")
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"coarsest-zero", func() { Coarsest(0) }},
		{"from-rgs-empty", func() { FromRGS(nil) }},
		{"must-from-blocks-uncovered", func() { MustFromBlocks(3, [][]int{{1, 2}}) }},
		{"block-of-zero", func() { p.BlockOf(0) }},
		{"block-of-past-n", func() { p.BlockOf(4) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			c.f()
		})
	}
	if q := MustFromBlocks(3, [][]int{{3}, {1, 2}}); !q.Equal(p) {
		t.Errorf("MustFromBlocks = %s, want %s", q, p)
	}
}
