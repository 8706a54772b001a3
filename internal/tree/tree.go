// Package tree implements the decision-tree learner of the paper's
// single-player example (Section IV-A), together with the two strategies
// the player chooses between when the data have missing values:
//
//   - ImputeThenLearn: "resort to the imputation of convenient substitutes
//     for the missing data and accept the consequent inaccuracies in the
//     prediction" — one model, biased inputs;
//   - PerPatternEnsemble: "avoid missing data imputation altogether and
//     learn as many different models as the combination of available
//     features" — no imputation bias, but a model count that grows with
//     the number of availability patterns.
//
// The single player "should be able to strike a balance between the
// inaccuracy of the predictor and the cost of learning many models"; the
// Tradeoff helper exposes exactly that frontier (experiment E9).
package tree

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/impute"
	"repro/internal/stats"
)

// Tree is a binary CART-style decision tree for ±1 labels over continuous
// features.
type Tree struct {
	feature  int // split feature; -1 at leaves
	thresh   float64
	left     *Tree
	right    *Tree
	label    int // leaf prediction
	features []int
}

// Params bounds tree growth.
type Params struct {
	MaxDepth    int // default 6
	MinLeafSize int // default 3
}

func (p Params) withDefaults() Params {
	if p.MaxDepth <= 0 {
		p.MaxDepth = 6
	}
	if p.MinLeafSize <= 0 {
		p.MinLeafSize = 3
	}
	return p
}

// Learn fits a tree on complete rows x (no missing values) with ±1 labels,
// using Gini impurity and midpoint thresholds.
func Learn(x [][]float64, y []int, p Params) (*Tree, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("tree: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("tree: %d rows, %d labels", len(x), len(y))
	}
	for _, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("tree: label %d not in {-1,+1}", v)
		}
	}
	p = p.withDefaults()
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	feats := make([]int, len(x[0]))
	for j := range feats {
		feats[j] = j
	}
	t := grow(x, y, idx, p, 0)
	t.features = feats
	return t, nil
}

func majority(y []int, idx []int) int {
	pos := 0
	for _, i := range idx {
		if y[i] > 0 {
			pos++
		}
	}
	if 2*pos >= len(idx) {
		return 1
	}
	return -1
}

func gini(y []int, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	pos := 0
	for _, i := range idx {
		if y[i] > 0 {
			pos++
		}
	}
	p := float64(pos) / float64(len(idx))
	return 2 * p * (1 - p)
}

func grow(x [][]float64, y []int, idx []int, p Params, depth int) *Tree {
	leaf := &Tree{feature: -1, label: majority(y, idx)}
	if depth >= p.MaxDepth || len(idx) < 2*p.MinLeafSize || gini(y, idx) == 0 {
		return leaf
	}
	d := len(x[0])
	bestGain, bestF, bestT := 0.0, -1, 0.0
	base := gini(y, idx)
	for f := 0; f < d; f++ {
		vals := make([]float64, len(idx))
		for k, i := range idx {
			vals[k] = x[i][f]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for k := 0; k+1 < len(sorted); k++ {
			if sorted[k] == sorted[k+1] {
				continue
			}
			thr := (sorted[k] + sorted[k+1]) / 2
			var l, r []int
			for _, i := range idx {
				if x[i][f] <= thr {
					l = append(l, i)
				} else {
					r = append(r, i)
				}
			}
			if len(l) < p.MinLeafSize || len(r) < p.MinLeafSize {
				continue
			}
			w := float64(len(l)) / float64(len(idx))
			gain := base - w*gini(y, l) - (1-w)*gini(y, r)
			if gain > bestGain+1e-12 {
				bestGain, bestF, bestT = gain, f, thr
			}
		}
	}
	if bestF == -1 {
		return leaf
	}
	var l, r []int
	for _, i := range idx {
		if x[i][bestF] <= bestT {
			l = append(l, i)
		} else {
			r = append(r, i)
		}
	}
	return &Tree{
		feature: bestF,
		thresh:  bestT,
		left:    grow(x, y, l, p, depth+1),
		right:   grow(x, y, r, p, depth+1),
		label:   leaf.label,
	}
}

// Predict returns the ±1 label for one complete row.
func (t *Tree) Predict(row []float64) int {
	cur := t
	for cur.feature >= 0 {
		if row[cur.feature] <= cur.thresh {
			cur = cur.left
		} else {
			cur = cur.right
		}
	}
	return cur.label
}

// NumNodes counts internal nodes plus leaves.
func (t *Tree) NumNodes() int {
	if t.feature < 0 {
		return 1
	}
	return 1 + t.left.NumNodes() + t.right.NumNodes()
}

// Strategy is a missing-data handling policy producing a classifier.
type Strategy interface {
	Fit(d *dataset.Dataset, p Params) (Classifier, error)
	String() string
}

// Classifier predicts labels for possibly-missing rows and reports its
// model count (the cost axis of the E9 tradeoff).
type Classifier interface {
	Predict(row []float64, missing []bool) int
	ModelCount() int
}

// ImputeThenLearn fills missing cells with the configured imputer and fits
// one tree.
type ImputeThenLearn struct {
	Imputer impute.Imputer
}

func (s ImputeThenLearn) String() string {
	if s.Imputer == nil {
		return "impute(mean)+tree"
	}
	return "impute(" + s.Imputer.String() + ")+tree"
}

type imputedModel struct {
	tree     *Tree
	colMeans []float64
}

// Fit implements Strategy.
func (s ImputeThenLearn) Fit(d *dataset.Dataset, p Params) (Classifier, error) {
	im := s.Imputer
	if im == nil {
		im = impute.Mean{}
	}
	x := make([][]float64, d.N())
	mask := make([][]bool, d.N())
	for i := range x {
		x[i] = append([]float64(nil), d.X[i]...)
		if d.Missing != nil {
			mask[i] = append([]bool(nil), d.Missing[i]...)
		} else {
			mask[i] = make([]bool, d.D())
		}
	}
	if _, err := im.Impute(x, mask); err != nil {
		return nil, err
	}
	t, err := Learn(x, d.Y, p)
	if err != nil {
		return nil, err
	}
	means := make([]float64, d.D())
	for j := 0; j < d.D(); j++ {
		var obs []float64
		for i := range x {
			obs = append(obs, x[i][j])
		}
		means[j] = stats.Mean(obs)
	}
	return &imputedModel{tree: t, colMeans: means}, nil
}

// Predict implements Classifier: missing cells are imputed with the
// training column means before routing.
func (m *imputedModel) Predict(row []float64, missing []bool) int {
	r := append([]float64(nil), row...)
	for j := range r {
		if missing != nil && missing[j] {
			r[j] = m.colMeans[j]
		}
	}
	return m.tree.Predict(r)
}

// ModelCount implements Classifier.
func (m *imputedModel) ModelCount() int { return 1 }

// PerPatternEnsemble learns one tree per observed-feature pattern: each
// pattern's tree is trained on the rows that observe (at least) those
// features, restricted to exactly those features — no imputation anywhere.
// MaxPatterns bounds the model budget; rarer patterns beyond the budget
// fall back to the most similar retained pattern.
type PerPatternEnsemble struct {
	MaxPatterns int // 0 = unlimited
}

func (s PerPatternEnsemble) String() string {
	if s.MaxPatterns > 0 {
		return fmt.Sprintf("per-pattern(max=%d)", s.MaxPatterns)
	}
	return "per-pattern"
}

type patternModel struct {
	patterns []string // bitstring keys, "1" = observed
	feats    [][]int  // observed feature indices per pattern
	trees    []*Tree
	d        int
	fallback int // majority label when nothing matches
}

// Fit implements Strategy.
func (s PerPatternEnsemble) Fit(d *dataset.Dataset, p Params) (Classifier, error) {
	if d.N() == 0 {
		return nil, fmt.Errorf("tree: empty training set")
	}
	dd := d.D()
	patKey := func(miss []bool) string {
		var sb strings.Builder
		for j := 0; j < dd; j++ {
			if miss != nil && miss[j] {
				sb.WriteByte('0')
			} else {
				sb.WriteByte('1')
			}
		}
		return sb.String()
	}
	counts := map[string]int{}
	for i := 0; i < d.N(); i++ {
		var miss []bool
		if d.Missing != nil {
			miss = d.Missing[i]
		}
		counts[patKey(miss)]++
	}
	type pc struct {
		key string
		n   int
	}
	var pcs []pc
	for k, n := range counts {
		pcs = append(pcs, pc{k, n})
	}
	sort.Slice(pcs, func(a, b int) bool {
		if pcs[a].n != pcs[b].n {
			return pcs[a].n > pcs[b].n
		}
		return pcs[a].key > pcs[b].key // more-observed patterns first on ties
	})
	if s.MaxPatterns > 0 && len(pcs) > s.MaxPatterns {
		pcs = pcs[:s.MaxPatterns]
	}

	model := &patternModel{d: dd, fallback: majorityAll(d.Y)}
	for _, c := range pcs {
		var feats []int
		for j := 0; j < dd; j++ {
			if c.key[j] == '1' {
				feats = append(feats, j)
			}
		}
		if len(feats) == 0 {
			continue
		}
		// Train on every row that observes all of feats.
		var xs [][]float64
		var ys []int
		for i := 0; i < d.N(); i++ {
			ok := true
			for _, f := range feats {
				if d.IsMissing(i, f) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			row := make([]float64, len(feats))
			for k, f := range feats {
				row[k] = d.X[i][f]
			}
			xs = append(xs, row)
			ys = append(ys, d.Y[i])
		}
		if len(xs) < 2 {
			continue
		}
		t, err := Learn(xs, ys, p)
		if err != nil {
			return nil, err
		}
		model.patterns = append(model.patterns, c.key)
		model.feats = append(model.feats, feats)
		model.trees = append(model.trees, t)
	}
	if len(model.trees) == 0 {
		return nil, fmt.Errorf("tree: no trainable availability pattern")
	}
	return model, nil
}

func majorityAll(y []int) int {
	pos := 0
	for _, v := range y {
		if v > 0 {
			pos++
		}
	}
	if 2*pos >= len(y) {
		return 1
	}
	return -1
}

// Predict implements Classifier: route to the tree whose pattern is
// observed by the row and covers the most features; fall back to the
// majority label when no pattern fits.
func (m *patternModel) Predict(row []float64, missing []bool) int {
	bestK, bestCover := -1, -1
	for k, feats := range m.feats {
		ok := true
		for _, f := range feats {
			if missing != nil && missing[f] {
				ok = false
				break
			}
		}
		if ok && len(feats) > bestCover {
			bestK, bestCover = k, len(feats)
		}
	}
	if bestK == -1 {
		return m.fallback
	}
	r := make([]float64, len(m.feats[bestK]))
	for k, f := range m.feats[bestK] {
		r[k] = row[f]
	}
	return m.trees[bestK].Predict(r)
}

// ModelCount implements Classifier.
func (m *patternModel) ModelCount() int { return len(m.trees) }

// TradeoffPoint is one strategy's outcome on a workload: accuracy vs the
// number of models it had to learn — the two axes of the single player's
// optimization.
type TradeoffPoint struct {
	Strategy string
	Accuracy float64
	Models   int
}

// Evaluate fits the strategy on train and measures accuracy on test.
func Evaluate(s Strategy, train, test *dataset.Dataset, p Params) (TradeoffPoint, error) {
	c, err := s.Fit(train, p)
	if err != nil {
		return TradeoffPoint{}, err
	}
	pred := make([]int, test.N())
	for i := 0; i < test.N(); i++ {
		var miss []bool
		if test.Missing != nil {
			miss = test.Missing[i]
		}
		pred[i] = c.Predict(test.X[i], miss)
	}
	return TradeoffPoint{
		Strategy: s.String(),
		Accuracy: stats.Accuracy(pred, test.Y),
		Models:   c.ModelCount(),
	}, nil
}

// SinglePlayerChoice picks the strategy maximizing accuracy - costPerModel
// × models: the paper's single player striking "a balance between the
// inaccuracy of the predictor and the cost of learning many models".
func SinglePlayerChoice(points []TradeoffPoint, costPerModel float64) (TradeoffPoint, float64) {
	best := TradeoffPoint{}
	bestU := math.Inf(-1)
	for _, pt := range points {
		u := pt.Accuracy - costPerModel*float64(pt.Models)
		if u > bestU {
			best, bestU = pt, u
		}
	}
	return best, bestU
}
