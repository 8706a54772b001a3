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
	cols, err := t.columns(attrs)
	if err != nil {
		return nil, err
	}
	return t.code(cols).classes(cols), nil
}

// columns resolves attribute names to column indices.
func (t *Table) columns(attrs []string) ([]int, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		c, err := t.AttrIndex(a)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	return cols, nil
}

// codedTable is a table with some of its columns coded to small ints:
// code[c][r] is the rank of row r's value among column c's distinct
// values in order of first appearance, and card[c] is their count, so two
// rows agree on column c iff their codes do. An uncoded column has a nil
// code.
type codedTable struct {
	n    int
	code [][]int
	card []int
}

// code codes the given columns of t, each once.
func (t *Table) code(cols []int) *codedTable {
	ct := &codedTable{n: t.N(), code: make([][]int, len(t.Attrs)), card: make([]int, len(t.Attrs))}
	for _, c := range cols {
		if ct.code[c] != nil {
			continue
		}
		seen := map[string]int{}
		col := make([]int, ct.n)
		for r, row := range t.Rows {
			v, ok := seen[row[c]]
			if !ok {
				v = len(seen)
				seen[row[c]] = v
			}
			col[r] = v
		}
		ct.code[c], ct.card[c] = col, len(seen)
	}
	return ct
}

// classes returns the indiscernibility classes of the coded columns cols,
// as Indiscernibility orders them. A stable counting sort of the row
// indices by each column, last column first, lines the rows up by their
// code tuples with every run of equal tuples — one class — ascending;
// the classes are then ordered by smallest member.
func (ct *codedTable) classes(cols []int) [][]int {
	order := make([]int, ct.n)
	for r := range order {
		order[r] = r
	}
	buf := make([]int, ct.n)
	for i := len(cols) - 1; i >= 0; i-- {
		code := ct.code[cols[i]]
		start := make([]int, ct.card[cols[i]]+1)
		for _, r := range order {
			start[code[r]+1]++
		}
		for v := 1; v < len(start); v++ {
			start[v] += start[v-1]
		}
		for _, r := range order {
			buf[start[code[r]]] = r
			start[code[r]]++
		}
		order, buf = buf, order
	}
	out := make([][]int, 0)
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && ct.agree(cols, order[i], order[j]) {
			j++
		}
		out = append(out, order[i:j:j])
		i = j
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// agree reports whether rows r and q have the same codes on every column
// of cols.
func (ct *codedTable) agree(cols []int, r, q int) bool {
	for _, c := range cols {
		if ct.code[c][r] != ct.code[c][q] {
			return false
		}
	}
	return true
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
	in, err := t.membership(concept)
	if err != nil {
		return nil, err
	}
	ap := &Approximation{}
	for _, cls := range classes {
		contained, intersects := classIn(cls, in)
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

// membership returns the concept's indicator over the rows.
func (t *Table) membership(concept []int) ([]bool, error) {
	in := make([]bool, t.N())
	for _, r := range concept {
		if r < 0 || r >= t.N() {
			return nil, fmt.Errorf("rough: concept row %d out of range [0,%d)", r, t.N())
		}
		in[r] = true
	}
	return in, nil
}

// classIn reports whether the class lies wholly inside the concept and
// whether it meets it.
func classIn(cls []int, in []bool) (contained, intersects bool) {
	contained = true
	for _, r := range cls {
		if in[r] {
			intersects = true
		} else {
			contained = false
		}
	}
	return contained, intersects
}

// AccuracyElements is the classical Pawlak accuracy |lower| / |upper|.
// It returns 1 for an empty upper approximation (empty concept is exact).
func (a *Approximation) AccuracyElements() float64 {
	return ratio(len(a.Lower), len(a.Upper))
}

// AccuracyGranules is the granule-count ratio the paper's example uses:
// #lower classes / #upper classes. It returns 1 for an empty upper
// approximation.
func (a *Approximation) AccuracyGranules() float64 {
	return ratio(len(a.LowerGranules), len(a.UpperGranules))
}

// ratio is lower/upper, or 1 for an empty upper approximation.
func ratio(lower, upper int) float64 {
	if upper == 0 {
		return 1
	}
	return float64(lower) / float64(upper)
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
// attrs, weighted by class size. Lower is better for seeding. Within a
// class the decision values are counted in order of their first
// appearance in the table, so the sum has one order.
//
//iotml:allow unusedexport -- the entropy measure of the rough-set API; SelectSeed's ByEntropy scores subsets with the same computation on its once-coded table
func (t *Table) ConditionalEntropy(attrs []string, decision string) (float64, error) {
	dcol, err := t.AttrIndex(decision)
	if err != nil {
		return 0, err
	}
	cols, err := t.columns(attrs)
	if err != nil {
		return 0, err
	}
	return t.code(append(cols, dcol)).conditionalEntropy(cols, dcol), nil
}

// conditionalEntropy is ConditionalEntropy over coded columns.
func (ct *codedTable) conditionalEntropy(cols []int, dcol int) float64 {
	total := float64(ct.n)
	if total == 0 {
		return 0
	}
	decision := ct.code[dcol]
	counts := make([]int, ct.card[dcol])
	h := 0.0
	for _, cls := range ct.classes(cols) {
		clear(counts)
		for _, r := range cls {
			counts[decision[r]]++
		}
		h += float64(len(cls)) / total * stats.Entropy(counts)
	}
	return h
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
	var candidates []int
	for c, a := range t.Attrs {
		if a != decision {
			candidates = append(candidates, c)
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
	// Every subset is scored on the same coded table: each column is
	// coded once here, not once per subset.
	dcol, _ := t.AttrIndex(decision)
	all := make([]int, len(t.Attrs))
	for c := range all {
		all[c] = c
	}
	ct := t.code(all)
	in, _ := t.membership(concept)

	best := &SeedResult{Score: math.Inf(-1)}
	var cur []string
	var curCols []int
	var rec func(start int)
	score := func(cols []int) float64 {
		if obj == ByEntropy {
			return -ct.conditionalEntropy(cols, dcol)
		}
		var lower, upper, lowerG, upperG int
		for _, cls := range ct.classes(cols) {
			contained, intersects := classIn(cls, in)
			if intersects {
				upper += len(cls)
				upperG++
			}
			if intersects && contained {
				lower += len(cls)
				lowerG++
			}
		}
		if obj == ByGranuleAccuracy {
			return ratio(lowerG, upperG)
		}
		return ratio(lower, upper)
	}
	rec = func(start int) {
		if len(cur) > 0 {
			s := score(curCols)
			if s > best.Score+1e-12 ||
				(s > best.Score-1e-12 && betterTie(cur, best.Attrs)) {
				best = &SeedResult{Attrs: append([]string(nil), cur...), Score: s}
			}
		}
		if len(cur) == maxSize {
			return
		}
		for i := start; i < len(candidates); i++ {
			cur = append(cur, t.Attrs[candidates[i]])
			curCols = append(curCols, candidates[i])
			rec(i + 1)
			cur, curCols = cur[:len(cur)-1], curCols[:len(curCols)-1]
		}
	}
	rec(0)
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
