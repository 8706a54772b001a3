// Package rough implements Pawlak rough sets [9] over discrete-valued
// information tables: indiscernibility relations induced by feature subsets,
// lower and upper approximations of concepts, approximation accuracy, and
// the dynamic feature-subset selection the paper uses to seed its partition-
// lattice exploration (Section III).
//
// Two accuracy measures are provided. AccuracyElements is the classical
// Pawlak ratio |lower| / |upper| over instances. AccuracyGranules is the
// ratio of granule (equivalence-class) counts, which is what the paper's
// worked example computes: for the four-phone table with K = {OS} it
// reports accuracy 0.5 = (1 lower granule) / (2 upper granules), whereas
// the element ratio would be 1/3. EXPERIMENTS.md records the discrepancy.
package rough

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Table is a discrete information system: named attributes over rows of
// categorical values.
type Table struct {
	Attrs []string
	Rows  [][]string
}

// NewTable validates shape and returns a Table.
func NewTable(attrs []string, rows [][]string) (*Table, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("rough: table needs at least one attribute")
	}
	for i, r := range rows {
		if len(r) != len(attrs) {
			return nil, fmt.Errorf("rough: row %d has %d values, want %d", i, len(r), len(attrs))
		}
	}
	return &Table{Attrs: attrs, Rows: rows}, nil
}

// MustNewTable is NewTable that panics on error, for tests and examples.
func MustNewTable(attrs []string, rows [][]string) *Table {
	t, err := NewTable(attrs, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// N returns the number of rows (instances).
func (t *Table) N() int { return len(t.Rows) }

// AttrIndex returns the column index of the named attribute, or an error.
func (t *Table) AttrIndex(name string) (int, error) {
	for i, a := range t.Attrs {
		if a == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("rough: unknown attribute %q", name)
}

// Indiscernibility returns the equivalence classes of rows induced by the
// attribute subset K (named attributes): two rows are equivalent iff they
// agree on every attribute in K. Classes are returned as sorted row-index
// slices, ordered by smallest member.
func (t *Table) Indiscernibility(attrs []string) ([][]int, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		c, err := t.AttrIndex(a)
		if err != nil {
			return nil, err
		}
		cols[i] = c
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

// Approximation is the rough description of a concept under an
// indiscernibility relation.
type Approximation struct {
	LowerGranules [][]int // classes fully contained in the concept
	UpperGranules [][]int // classes intersecting the concept
	Lower         []int   // union of LowerGranules, sorted
	Upper         []int   // union of UpperGranules, sorted
}

// Approximate computes the lower and upper approximations of the concept
// (a set of row indices) under the indiscernibility relation of attrs.
func (t *Table) Approximate(concept []int, attrs []string) (*Approximation, error) {
	classes, err := t.Indiscernibility(attrs)
	if err != nil {
		return nil, err
	}
	in := make([]bool, t.N())
	for _, r := range concept {
		if r < 0 || r >= t.N() {
			return nil, fmt.Errorf("rough: concept row %d out of range [0,%d)", r, t.N())
		}
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

// AccuracyElements is the classical Pawlak accuracy |lower| / |upper|.
// It returns 1 for an empty upper approximation (empty concept is exact).
func (a *Approximation) AccuracyElements() float64 {
	if len(a.Upper) == 0 {
		return 1
	}
	return float64(len(a.Lower)) / float64(len(a.Upper))
}

// AccuracyGranules is the granule-count ratio the paper's example uses:
// #lower classes / #upper classes. It returns 1 for an empty upper
// approximation.
func (a *Approximation) AccuracyGranules() float64 {
	if len(a.UpperGranules) == 0 {
		return 1
	}
	return float64(len(a.LowerGranules)) / float64(len(a.UpperGranules))
}

// ConceptOf returns the rows where the named attribute takes the given
// value — the usual way benchmark concepts are specified.
func (t *Table) ConceptOf(attr, value string) ([]int, error) {
	c, err := t.AttrIndex(attr)
	if err != nil {
		return nil, err
	}
	var rows []int
	for r := range t.Rows {
		if t.Rows[r][c] == value {
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// ConditionalEntropy returns H(decision | attrs): the expected Shannon
// entropy of the decision attribute within each indiscernibility class of
// attrs, weighted by class size. Lower is better for seeding.
func (t *Table) ConditionalEntropy(attrs []string, decision string) (float64, error) {
	dcol, err := t.AttrIndex(decision)
	if err != nil {
		return 0, err
	}
	classes, err := t.Indiscernibility(attrs)
	if err != nil {
		return 0, err
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
		cc := make([]int, 0, len(counts))
		for _, v := range counts {
			cc = append(cc, v)
		}
		h += float64(len(cls)) / total * stats.Entropy(cc)
	}
	return h, nil
}

// SeedObjective selects how SelectSeed scores candidate feature subsets.
type SeedObjective int

const (
	// ByAccuracy maximizes the Pawlak element accuracy of the benchmark
	// concept approximation (the paper's "dynamic" criterion).
	ByAccuracy SeedObjective = iota
	// ByGranuleAccuracy maximizes the paper's granule-count accuracy.
	ByGranuleAccuracy
	// ByEntropy minimizes conditional entropy of the decision attribute.
	ByEntropy
)

// SeedResult is the outcome of a seed search: the chosen attribute subset K
// and its score.
type SeedResult struct {
	Attrs []string
	Score float64 // higher is better (entropies are negated)
}

// SelectSeed chooses the feature subset K (of size between 1 and maxSize)
// that best approximates the benchmark concept "decision = value",
// scanning all subsets of the non-decision attributes. This implements the
// paper's dynamic selection of K "based on the approximation accuracy on
// benchmark concepts (as opposed to statically, based on semantic distance
// between features)". Ties break toward smaller subsets, then
// lexicographically.
func (t *Table) SelectSeed(decision, value string, maxSize int, obj SeedObjective) (*SeedResult, error) {
	var candidates []string
	for _, a := range t.Attrs {
		if a != decision {
			candidates = append(candidates, a)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("rough: no candidate attributes besides decision %q", decision)
	}
	if maxSize <= 0 || maxSize > len(candidates) {
		maxSize = len(candidates)
	}
	concept, err := t.ConceptOf(decision, value)
	if err != nil {
		return nil, err
	}

	best := &SeedResult{Score: math.Inf(-1)}
	var cur []string
	var rec func(start int) error
	score := func(attrs []string) (float64, error) {
		switch obj {
		case ByEntropy:
			h, err := t.ConditionalEntropy(attrs, decision)
			return -h, err
		case ByGranuleAccuracy:
			ap, err := t.Approximate(concept, attrs)
			if err != nil {
				return 0, err
			}
			return ap.AccuracyGranules(), nil
		default:
			ap, err := t.Approximate(concept, attrs)
			if err != nil {
				return 0, err
			}
			return ap.AccuracyElements(), nil
		}
	}
	rec = func(start int) error {
		if len(cur) > 0 {
			s, err := score(cur)
			if err != nil {
				return err
			}
			if s > best.Score+1e-12 ||
				(s > best.Score-1e-12 && betterTie(cur, best.Attrs)) {
				best = &SeedResult{Attrs: append([]string(nil), cur...), Score: s}
			}
		}
		if len(cur) == maxSize {
			return nil
		}
		for i := start; i < len(candidates); i++ {
			cur = append(cur, candidates[i])
			if err := rec(i + 1); err != nil {
				return err
			}
			cur = cur[:len(cur)-1]
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return best, nil
}

// betterTie prefers smaller subsets, then lexicographic order; an empty
// incumbent always loses.
func betterTie(cand, incumbent []string) bool {
	if len(incumbent) == 0 {
		return true
	}
	if len(cand) != len(incumbent) {
		return len(cand) < len(incumbent)
	}
	for i := range cand {
		if cand[i] != incumbent[i] {
			return cand[i] < incumbent[i]
		}
	}
	return false
}

// PhonesExample returns the four-phone table from Section III of the paper.
func PhonesExample() *Table {
	return MustNewTable(
		[]string{"Battery Level", "OS", "Available"},
		[][]string{
			{"AVERAGE", "Android", "N"},
			{"HIGH", "Android", "Y"},
			{"AVERAGE", "iOS", "Y"},
			{"LOW", "Symbian", "N"},
		},
	)
}
