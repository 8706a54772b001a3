package rough

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestPaperPhoneExample(t *testing.T) {
	// Section III: K = {OS} on the four-phone table. The equivalence
	// relation is {{1,2},{3},{4}} (1-based); the concept T of available
	// phones is {2,3}; lower approximation {3}, upper {{1,2},{3}} = {1,2,3};
	// the paper reports approximation accuracy 0.5 (granule-count ratio).
	tbl := PhonesExample()
	classes, err := tbl.Indiscernibility([]string{"OS"})
	if err != nil {
		t.Fatal(err)
	}
	wantClasses := [][]int{{0, 1}, {2}, {3}} // 0-based rows
	if !reflect.DeepEqual(classes, wantClasses) {
		t.Fatalf("classes = %v, want %v", classes, wantClasses)
	}
	concept, err := tbl.ConceptOf("Available", "Y")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(concept, []int{1, 2}) {
		t.Fatalf("concept = %v, want [1 2]", concept)
	}
	ap, err := tbl.Approximate(concept, []string{"OS"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ap.Lower, []int{2}) {
		t.Errorf("lower = %v, want [2] (phone 3)", ap.Lower)
	}
	if !reflect.DeepEqual(ap.Upper, []int{0, 1, 2}) {
		t.Errorf("upper = %v, want [0 1 2] (phones 1,2,3)", ap.Upper)
	}
	if got := ap.AccuracyGranules(); got != 0.5 {
		t.Errorf("granule accuracy = %v, want 0.5 (paper's value)", got)
	}
	if got := ap.AccuracyElements(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("element accuracy = %v, want 1/3 (classical Pawlak)", got)
	}
}

func TestIndiscernibilityMultiAttr(t *testing.T) {
	tbl := PhonesExample()
	classes, err := tbl.Indiscernibility([]string{"Battery Level", "OS"})
	if err != nil {
		t.Fatal(err)
	}
	// All four phones differ on (Battery, OS) jointly.
	if len(classes) != 4 {
		t.Errorf("got %d classes, want 4", len(classes))
	}
	if _, err := tbl.Indiscernibility([]string{"Nope"}); err == nil {
		t.Error("unknown attribute should error")
	}
}

func TestApproximationMonotonicityProperty(t *testing.T) {
	// Refining the relation (adding attributes) grows lower approximations
	// and shrinks upper approximations for any concept.
	tbl := PhonesExample()
	concepts := [][]int{{0}, {1, 2}, {0, 3}, {0, 1, 2, 3}, {}}
	for _, c := range concepts {
		coarse, err := tbl.Approximate(c, []string{"OS"})
		if err != nil {
			t.Fatal(err)
		}
		fine, err := tbl.Approximate(c, []string{"OS", "Battery Level"})
		if err != nil {
			t.Fatal(err)
		}
		if len(fine.Lower) < len(coarse.Lower) {
			t.Errorf("concept %v: finer lower shrank (%d < %d)", c, len(fine.Lower), len(coarse.Lower))
		}
		if len(fine.Upper) > len(coarse.Upper) {
			t.Errorf("concept %v: finer upper grew (%d > %d)", c, len(fine.Upper), len(coarse.Upper))
		}
		if len(coarse.Lower) > len(c) || len(c) > len(coarse.Upper) {
			t.Errorf("concept %v: lower ⊆ T ⊆ upper violated", c)
		}
	}
}

func TestApproximateValidation(t *testing.T) {
	tbl := PhonesExample()
	if _, err := tbl.Approximate([]int{99}, []string{"OS"}); err == nil {
		t.Error("out of range concept row should error")
	}
	// Empty concept is exact with accuracy 1 by convention.
	ap, err := tbl.Approximate(nil, []string{"OS"})
	if err != nil {
		t.Fatal(err)
	}
	if ap.AccuracyElements() != 1 || ap.AccuracyGranules() != 1 {
		t.Error("empty concept should have accuracy 1")
	}
}

func TestConditionalEntropy(t *testing.T) {
	tbl := PhonesExample()
	// H(Available | Battery Level): classes AVERAGE={1,3}->{N,Y} H=1,
	// HIGH={2}->{Y} H=0, LOW={4}->{N} H=0. Weighted: 2/4*1 = 0.5.
	h, err := tbl.ConditionalEntropy([]string{"Battery Level"}, "Available")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-0.5) > 1e-12 {
		t.Errorf("H(Available|Battery) = %v, want 0.5", h)
	}
	// H(Available | OS): Android={1,2}->{N,Y} H=1 weight 1/2 -> 0.5.
	h2, err := tbl.ConditionalEntropy([]string{"OS"}, "Available")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h2-0.5) > 1e-12 {
		t.Errorf("H(Available|OS) = %v, want 0.5", h2)
	}
	// Full attribute set discerns everything: entropy 0.
	h3, err := tbl.ConditionalEntropy([]string{"Battery Level", "OS"}, "Available")
	if err != nil {
		t.Fatal(err)
	}
	if h3 != 0 {
		t.Errorf("H(Available|all) = %v, want 0", h3)
	}
}

func TestSelectSeedByAccuracy(t *testing.T) {
	tbl := PhonesExample()
	res, err := tbl.SelectSeed("Available", "Y", 0, ByAccuracy)
	if err != nil {
		t.Fatal(err)
	}
	// Battery Level alone: classes AVERAGE={1,3} HIGH={2} LOW={4};
	// T={2,3}: lower={2}, upper={1,2,3}: accuracy 1/3.
	// OS alone: 1/3. {Battery, OS}: everything discerned: accuracy 1.
	if res.Score != 1 {
		t.Errorf("best score = %v, want 1", res.Score)
	}
	if len(res.Attrs) != 2 {
		t.Errorf("best attrs = %v, want both attributes", res.Attrs)
	}
}

func TestSelectSeedMaxSizeOne(t *testing.T) {
	tbl := PhonesExample()
	res, err := tbl.SelectSeed("Available", "Y", 1, ByAccuracy)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) != 1 {
		t.Fatalf("attrs = %v, want singleton", res.Attrs)
	}
	// Both singletons score 1/3; tie breaks lexicographically.
	if res.Attrs[0] != "Battery Level" {
		t.Errorf("attrs = %v, want [Battery Level] by tie-break", res.Attrs)
	}
	if math.Abs(res.Score-1.0/3) > 1e-12 {
		t.Errorf("score = %v, want 1/3", res.Score)
	}
}

func TestSelectSeedByEntropy(t *testing.T) {
	tbl := PhonesExample()
	res, err := tbl.SelectSeed("Available", "Y", 0, ByEntropy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 0 { // negated entropy; 0 is perfect
		t.Errorf("score = %v, want 0 (zero conditional entropy)", res.Score)
	}
}

func TestSelectSeedByGranules(t *testing.T) {
	tbl := PhonesExample()
	res, err := tbl.SelectSeed("Available", "Y", 1, ByGranuleAccuracy)
	if err != nil {
		t.Fatal(err)
	}
	// OS: granule accuracy 1/2. Battery: lower {2} (1 granule), upper
	// {1,3},{2} (2 granules) -> 1/2 as well. Tie -> Battery Level.
	if math.Abs(res.Score-0.5) > 1e-12 {
		t.Errorf("score = %v, want 0.5", res.Score)
	}
}

func TestSelectSeedErrors(t *testing.T) {
	tbl := MustNewTable([]string{"only"}, [][]string{{"x"}})
	if _, err := tbl.SelectSeed("only", "x", 0, ByAccuracy); err == nil {
		t.Error("no candidates should error")
	}
	if _, err := PhonesExample().SelectSeed("Nope", "Y", 0, ByAccuracy); err == nil {
		t.Error("unknown decision should error")
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil, nil); err == nil {
		t.Error("empty attrs should error")
	}
	if _, err := NewTable([]string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Error("ragged row should error")
	}
}

func TestIndiscernibilityIsPartitionProperty(t *testing.T) {
	// Random tables: classes are disjoint and cover all rows.
	f := func(seed uint32, nr, na uint8) bool {
		rng := stats.NewRNG(int64(seed))
		rows := int(nr%20) + 1
		attrs := int(na%4) + 1
		names := make([]string, attrs)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		data := make([][]string, rows)
		for r := range data {
			data[r] = make([]string, attrs)
			for c := range data[r] {
				data[r][c] = string(rune('0' + rng.Intn(3)))
			}
		}
		tbl := MustNewTable(names, data)
		classes, err := tbl.Indiscernibility(names[:1+rng.Intn(attrs)])
		if err != nil {
			return false
		}
		seen := make([]bool, rows)
		for _, cls := range classes {
			for _, r := range cls {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func isSubset(a, b []string) bool {
	has := map[string]bool{}
	for _, x := range b {
		has[x] = true
	}
	for _, x := range a {
		if !has[x] {
			return false
		}
	}
	return true
}
