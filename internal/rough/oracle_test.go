package rough

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/stats"
)

// refIndiscernibility is the string-keyed Indiscernibility the coded
// classes replaced, kept as the oracle: each row's key joins its values
// on attrs, classes collect in a map, and each class is sorted before the
// classes are ordered by smallest member.
func refIndiscernibility(t *Table, attrs []string) ([][]int, error) {
	cols, err := t.columns(attrs)
	if err != nil {
		return nil, err
	}
	classes := map[string][]int{}
	var order []string
	for r := range t.Rows {
		key := ""
		for _, c := range cols {
			key += t.Rows[r][c] + "\x00"
		}
		if _, ok := classes[key]; !ok {
			order = append(order, key)
		}
		classes[key] = append(classes[key], r)
	}
	out := make([][]int, 0, len(order))
	for _, k := range order {
		cls := classes[k]
		sort.Ints(cls)
		out = append(out, cls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out, nil
}

// refApproximate is Approximate over refIndiscernibility.
func refApproximate(t *Table, concept []int, attrs []string) (*Approximation, error) {
	classes, err := refIndiscernibility(t, attrs)
	if err != nil {
		return nil, err
	}
	in := make([]bool, t.N())
	for _, r := range concept {
		in[r] = true
	}
	ap := &Approximation{}
	for _, cls := range classes {
		contained, intersects := true, false
		for _, r := range cls {
			if in[r] {
				intersects = true
			} else {
				contained = false
			}
		}
		if intersects {
			ap.UpperGranules = append(ap.UpperGranules, cls)
			ap.Upper = append(ap.Upper, cls...)
		}
		if intersects && contained {
			ap.LowerGranules = append(ap.LowerGranules, cls)
			ap.Lower = append(ap.Lower, cls...)
		}
	}
	sort.Ints(ap.Lower)
	sort.Ints(ap.Upper)
	return ap, nil
}

// refConditionalEntropy is ConditionalEntropy over refIndiscernibility,
// counting decision values by string within each class. The counts are
// summed in order of each value's first appearance in the table (the
// string-keyed version summed them in map order, which has none).
func refConditionalEntropy(t *Table, attrs []string, decision string) (float64, error) {
	dcol, err := t.AttrIndex(decision)
	if err != nil {
		return 0, err
	}
	classes, err := refIndiscernibility(t, attrs)
	if err != nil {
		return 0, err
	}
	var values []string
	seen := map[string]bool{}
	for _, row := range t.Rows {
		if !seen[row[dcol]] {
			seen[row[dcol]] = true
			values = append(values, row[dcol])
		}
	}
	total := float64(t.N())
	if total == 0 {
		return 0, nil
	}
	h := 0.0
	for _, cls := range classes {
		counts := map[string]int{}
		for _, r := range cls {
			counts[t.Rows[r][dcol]]++
		}
		cc := make([]int, 0, len(values))
		for _, v := range values {
			cc = append(cc, counts[v])
		}
		h += float64(len(cls)) / total * stats.Entropy(cc)
	}
	return h, nil
}

// refSelectSeed is SelectSeed scoring every subset through the oracles.
func refSelectSeed(t *Table, decision, value string, maxSize int, obj SeedObjective) *SeedResult {
	var candidates []string
	for _, a := range t.Attrs {
		if a != decision {
			candidates = append(candidates, a)
		}
	}
	if maxSize <= 0 || maxSize > len(candidates) {
		maxSize = len(candidates)
	}
	concept, _ := t.ConceptOf(decision, value)
	best := &SeedResult{Score: math.Inf(-1)}
	var cur []string
	var rec func(start int)
	rec = func(start int) {
		if len(cur) > 0 {
			var s float64
			switch obj {
			case ByEntropy:
				h, _ := refConditionalEntropy(t, cur, decision)
				s = -h
			case ByGranuleAccuracy:
				ap, _ := refApproximate(t, concept, cur)
				s = ap.AccuracyGranules()
			default:
				ap, _ := refApproximate(t, concept, cur)
				s = ap.AccuracyElements()
			}
			if s > best.Score+1e-12 || (s > best.Score-1e-12 && betterTie(cur, best.Attrs)) {
				best = &SeedResult{Attrs: append([]string(nil), cur...), Score: s}
			}
		}
		if len(cur) == maxSize {
			return
		}
		for i := start; i < len(candidates); i++ {
			cur = append(cur, candidates[i])
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return best
}

// randomTable draws a table of 0–40 rows over 1–5 uniquely named
// attributes, each with its own alphabet of 1–5 values (the empty string
// among them), plus a decision column "y" of 1–3 values.
func randomTable(rng interface{ Intn(int) int }) *Table {
	attrs := 1 + rng.Intn(5)
	names := make([]string, attrs+1)
	alphabet := make([]int, attrs+1)
	for c := range names {
		names[c] = "a" + strconv.Itoa(c)
		alphabet[c] = 1 + rng.Intn(5)
	}
	names[attrs], alphabet[attrs] = "y", 1+rng.Intn(3)
	rows := make([][]string, rng.Intn(41))
	for r := range rows {
		rows[r] = make([]string, len(names))
		for c := range rows[r] {
			if v := rng.Intn(alphabet[c]); v > 0 {
				rows[r][c] = "v" + strconv.Itoa(v)
			}
		}
	}
	return MustNewTable(names, rows)
}

// TestCodedClassesMatchStringKeyedOracle pins the coded classes to the
// string-keyed oracle on random tables: Indiscernibility and Approximate
// return the same classes in the same order, ConditionalEntropy the same
// bits, and SelectSeed the same subset and score under every objective.
func TestCodedClassesMatchStringKeyedOracle(t *testing.T) {
	rng := stats.NewRNG(23)
	for trial := 0; trial < 400; trial++ {
		tbl := randomTable(rng)
		attrs := tbl.Attrs[:len(tbl.Attrs)-1]
		subset := make([]string, 0, len(attrs))
		for _, i := range rng.Perm(len(attrs))[:rng.Intn(len(attrs)+1)] {
			subset = append(subset, attrs[i])
		}
		got, err := tbl.Indiscernibility(subset)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := refIndiscernibility(tbl, subset)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Indiscernibility(%v) = %v, oracle %v", trial, subset, got, want)
		}
		var concept []int
		for r := 0; r < tbl.N(); r++ {
			if rng.Intn(2) == 0 {
				concept = append(concept, r)
			}
		}
		ap, err := tbl.Approximate(concept, subset)
		if err != nil {
			t.Fatal(err)
		}
		if wantAp, _ := refApproximate(tbl, concept, subset); !reflect.DeepEqual(ap, wantAp) {
			t.Fatalf("trial %d: Approximate(%v, %v) = %+v, oracle %+v", trial, concept, subset, ap, wantAp)
		}
		h, err := tbl.ConditionalEntropy(subset, "y")
		if err != nil {
			t.Fatal(err)
		}
		if wantH, _ := refConditionalEntropy(tbl, subset, "y"); math.Float64bits(h) != math.Float64bits(wantH) {
			t.Fatalf("trial %d: ConditionalEntropy(%v) = %v, oracle %v", trial, subset, h, wantH)
		}
		if tbl.N() == 0 {
			continue
		}
		value := tbl.Rows[rng.Intn(tbl.N())][len(attrs)]
		maxSize := rng.Intn(len(attrs) + 1)
		for _, obj := range []SeedObjective{ByAccuracy, ByGranuleAccuracy, ByEntropy} {
			res, err := tbl.SelectSeed("y", value, maxSize, obj)
			if err != nil {
				t.Fatal(err)
			}
			wantRes := refSelectSeed(tbl, "y", value, maxSize, obj)
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("trial %d: SelectSeed(obj %d) = %+v, oracle %+v", trial, obj, res, wantRes)
			}
		}
	}
}
