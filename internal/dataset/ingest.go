// Ingestion: the bridge from user data to the faceted Dataset the fit API
// consumes. ReadCSV and ReadJSONL parse labeled tabular data under a
// declarative Schema — which column is the label, which columns are
// features (and in what order), how columns group into views (facets), and
// what to do with NaN cells — and WriteCSV round-trips a Dataset back to
// CSV with exact float precision (shortest round-trip formatting), so
// write→read→fit reproduces a fit on the original in-memory dataset
// bit-for-bit.
package dataset

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// NaNPolicy selects how unparseable-as-finite cells (empty CSV cells, NaN
// literals, JSON nulls, absent JSONL keys) are ingested.
type NaNPolicy int

const (
	// NaNReject fails the read on the first non-finite cell — the strict
	// default: training data is expected to be complete.
	NaNReject NaNPolicy = iota
	// NaNAsMissing marks the cell in the dataset's Missing mask (value 0),
	// feeding the paper's missing-data machinery.
	NaNAsMissing
	// NaNDropRow silently drops every row containing a non-finite cell.
	NaNDropRow
)

// String returns the CLI-facing name of the policy.
func (p NaNPolicy) String() string {
	switch p {
	case NaNReject:
		return "reject"
	case NaNAsMissing:
		return "missing"
	case NaNDropRow:
		return "drop"
	}
	return fmt.Sprintf("nan-policy-%d", int(p))
}

// ParseNaNPolicy reads a CLI policy name.
func ParseNaNPolicy(s string) (NaNPolicy, error) {
	switch s {
	case "", "reject":
		return NaNReject, nil
	case "missing":
		return NaNAsMissing, nil
	case "drop":
		return NaNDropRow, nil
	}
	return 0, fmt.Errorf("dataset: unknown NaN policy %q (reject|missing|drop)", s)
}

// SchemaView declares one facet: a named group of feature columns.
type SchemaView struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
}

// Schema declares how tabular data maps onto a Dataset.
type Schema struct {
	// Label names the ±1 label column (default "label").
	Label string `json:"label,omitempty"`
	// Features lists the feature columns in dataset order. Empty selects
	// every non-label column: in header order for CSV, in sorted key order
	// of the first record for JSONL (JSON objects are unordered, so an
	// explicit list is the only way to pin a custom order there).
	Features []string `json:"features,omitempty"`
	// Views groups feature columns into facets (the view boundaries).
	// Columns not covered by any view become singleton facets, matching
	// Dataset.ViewPartition.
	Views []SchemaView `json:"views,omitempty"`
	// NaN selects the non-finite-cell policy (default NaNReject).
	NaN NaNPolicy `json:"nan,omitempty"`
}

func (s Schema) label() string {
	if s.Label == "" {
		return "label"
	}
	return s.Label
}

// resolve maps the schema onto a concrete column universe: the ordered
// feature list and the views with 0-based feature indices.
func (s Schema) resolve(features []string) ([]View, error) {
	idx := make(map[string]int, len(features))
	for i, f := range features {
		if f == s.label() {
			return nil, fmt.Errorf("dataset: label column %q listed as a feature", f)
		}
		// WriteCSV must carry every feature name back to ReadCSV, which
		// trims header names and folds a quoted CRLF to LF.
		if strings.TrimSpace(f) != f || strings.ContainsRune(f, '\r') {
			return nil, fmt.Errorf("dataset: feature column %q has surrounding space or a carriage return", f)
		}
		if _, dup := idx[f]; dup {
			return nil, fmt.Errorf("dataset: duplicate feature column %q", f)
		}
		idx[f] = i
	}
	views := make([]View, 0, len(s.Views))
	for _, v := range s.Views {
		feats := make([]int, 0, len(v.Columns))
		for _, c := range v.Columns {
			j, ok := idx[c]
			if !ok {
				return nil, fmt.Errorf("dataset: view %q references unknown feature column %q", v.Name, c)
			}
			feats = append(feats, j)
		}
		views = append(views, View{Name: v.Name, Features: feats})
	}
	return views, nil
}

// parseLabel reads a ±1 class label.
func parseLabel(cell string) (int, error) {
	y, err := strconv.Atoi(strings.TrimSpace(cell))
	if err != nil || (y != 1 && y != -1) {
		return 0, fmt.Errorf("bad label %q (want 1 or -1)", cell)
	}
	return y, nil
}

// parseCell reads one feature cell. ok=false marks a NaN-policy cell
// (empty or NaN); err reports values that are never ingestible (±Inf,
// non-numeric garbage).
func parseCell(cell string) (v float64, ok bool, err error) {
	cell = strings.TrimSpace(cell)
	if cell == "" {
		return 0, false, nil
	}
	v, err = strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad number %q", cell)
	}
	if math.IsNaN(v) {
		return 0, false, nil
	}
	if math.IsInf(v, 0) {
		return 0, false, fmt.Errorf("non-finite value %q", cell)
	}
	return v, true, nil
}

// ingestRow applies the NaN policy to one parsed row. keep=false drops the
// row (NaNDropRow); miss is the row's missing mask (nil when complete).
func ingestRow(row []float64, nan []bool, policy NaNPolicy, rowName string, colName func(int) string) (keep bool, miss []bool, err error) {
	any := false
	for j, isNaN := range nan {
		if !isNaN {
			continue
		}
		switch policy {
		case NaNReject:
			return false, nil, fmt.Errorf("dataset: %s: column %q: missing or NaN cell (policy reject; use missing|drop to ingest)", rowName, colName(j))
		case NaNDropRow:
			return false, nil, nil
		case NaNAsMissing:
			any = true
		}
	}
	if !any {
		return true, nil, nil
	}
	miss = make([]bool, len(row))
	copy(miss, nan)
	return true, miss, nil
}

// ReadCSV ingests labeled CSV under the schema. The first record is the
// header; every data record must have exactly the header's width (ragged
// rows fail). Feature cells must be finite floats — empty cells and NaN
// literals go through the schema's NaN policy, ±Inf and garbage always
// fail — and label cells must be 1 or -1.
func ReadCSV(r io.Reader, s Schema) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataset: empty CSV: no header record")
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	seen := make(map[string]int, len(header))
	labelCol := -1
	var features []string
	featCol := map[string]int{}
	for i, name := range header {
		name = strings.TrimSpace(name)
		header[i] = name
		if _, dup := seen[name]; dup {
			return nil, fmt.Errorf("dataset: duplicate CSV column %q", name)
		}
		seen[name] = i
		if name == s.label() {
			labelCol = i
		}
	}
	if labelCol < 0 {
		return nil, fmt.Errorf("dataset: CSV has no label column %q (header: %v)", s.label(), header)
	}
	if len(s.Features) > 0 {
		features = s.Features
		for _, f := range features {
			col, ok := seen[f]
			if !ok {
				return nil, fmt.Errorf("dataset: schema feature %q not in CSV header %v", f, header)
			}
			featCol[f] = col
		}
	} else {
		for i, name := range header {
			if i == labelCol {
				continue
			}
			features = append(features, name)
			featCol[name] = i
		}
	}
	if len(features) == 0 {
		return nil, fmt.Errorf("dataset: CSV has no feature columns")
	}
	views, err := s.resolve(features)
	if err != nil {
		return nil, err
	}

	d := &Dataset{FeatureNames: append([]string(nil), features...), Views: views}
	nan := make([]bool, len(features))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: CSV line %d: %w", line, err)
		}
		row := make([]float64, len(features))
		for j, f := range features {
			v, ok, err := parseCell(rec[featCol[f]])
			if err != nil {
				return nil, fmt.Errorf("dataset: CSV line %d, column %q: %w", line, f, err)
			}
			row[j], nan[j] = v, !ok
		}
		y, err := parseLabel(rec[labelCol])
		if err != nil {
			return nil, fmt.Errorf("dataset: CSV line %d: %w", line, err)
		}
		keep, miss, err := ingestRow(row, nan, s.NaN, fmt.Sprintf("CSV line %d", line), func(j int) string { return features[j] })
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, y)
		if miss != nil || d.Missing != nil {
			d.growMissing()
			if miss != nil {
				d.Missing[len(d.X)-1] = miss
			}
		}
	}
	if len(d.X) == 0 {
		return nil, fmt.Errorf("dataset: CSV has no data rows")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// growMissing extends the missing mask (allocating it on first use) so it
// covers every ingested row, with complete rows all-false.
func (d *Dataset) growMissing() {
	for len(d.Missing) < len(d.X) {
		d.Missing = append(d.Missing, make([]bool, d.D()))
	}
}

// ReadJSONL ingests labeled JSON-lines data: one JSON object per value,
// mapping column names to numeric values. The label key must hold exactly
// 1 or -1; feature keys must hold finite numbers. JSON null and absent
// feature keys go through the NaN policy; keys outside the schema are
// ignored. With an empty Schema.Features the feature set is the first
// object's non-label keys in sorted order (JSON objects carry no column
// order of their own).
func ReadJSONL(r io.Reader, s Schema) (*Dataset, error) {
	dec := json.NewDecoder(r)
	var d *Dataset
	var features []string
	var views []View
	nan := []bool(nil)
	for line := 1; ; line++ {
		var obj map[string]any
		if err := dec.Decode(&obj); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("dataset: JSONL record %d: %w", line, err)
		}
		if features == nil {
			if len(s.Features) > 0 {
				features = s.Features
			} else {
				for k := range obj {
					if k != s.label() {
						features = append(features, k)
					}
				}
				sort.Strings(features)
			}
			if len(features) == 0 {
				return nil, fmt.Errorf("dataset: JSONL record 1 has no feature keys")
			}
			var err error
			if views, err = s.resolve(features); err != nil {
				return nil, err
			}
			d = &Dataset{FeatureNames: append([]string(nil), features...), Views: views}
			nan = make([]bool, len(features))
		}
		labelVal, ok := obj[s.label()]
		if !ok {
			return nil, fmt.Errorf("dataset: JSONL record %d: no label key %q", line, s.label())
		}
		ly, ok := labelVal.(float64)
		if !ok || (ly != 1 && ly != -1) {
			return nil, fmt.Errorf("dataset: JSONL record %d: bad label %v (want 1 or -1)", line, labelVal)
		}
		row := make([]float64, len(features))
		for j, f := range features {
			row[j], nan[j] = 0, true
			switch v := obj[f].(type) {
			case nil: // absent key or JSON null: NaN policy
			case float64:
				if math.IsInf(v, 0) || math.IsNaN(v) {
					return nil, fmt.Errorf("dataset: JSONL record %d, key %q: non-finite value", line, f)
				}
				row[j], nan[j] = v, false
			default:
				return nil, fmt.Errorf("dataset: JSONL record %d, key %q: non-numeric value %v", line, f, v)
			}
		}
		keep, miss, err := ingestRow(row, nan, s.NaN, fmt.Sprintf("JSONL record %d", line), func(j int) string { return features[j] })
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, int(ly))
		if miss != nil || d.Missing != nil {
			d.growMissing()
			if miss != nil {
				d.Missing[len(d.X)-1] = miss
			}
		}
	}
	if d == nil || len(d.X) == 0 {
		return nil, fmt.Errorf("dataset: JSONL has no data records")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// csvFeatureNames returns the dataset's column names, generating f0..fD-1
// when it carries none (the same names CSVSchema declares).
func (d *Dataset) csvFeatureNames() []string {
	if d.FeatureNames != nil {
		return d.FeatureNames
	}
	names := make([]string, d.D())
	for j := range names {
		names[j] = fmt.Sprintf("f%d", j)
	}
	return names
}

// csvLabelName picks the label column name WriteCSV and CSVSchema agree
// on: "label", underscore-prefixed until it collides with no feature
// column (a dataset ingested under a custom Schema.Label may legally
// carry a feature named "label").
func csvLabelName(names []string) string {
	label := "label"
	for {
		clear := true
		for _, n := range names {
			if n == label {
				clear = false
				break
			}
		}
		if clear {
			return label
		}
		label = "_" + label
	}
}

// WriteCSV renders the dataset as labeled CSV: a header of the feature
// names plus a final label column (named "label", underscore-prefixed if
// a feature already uses that name), then one record per instance. Floats
// use shortest-round-trip formatting, so ReadCSV(WriteCSV(d)) under
// CSVSchema reproduces every value bit-for-bit; missing cells are written
// empty (re-ingest them with NaNAsMissing).
func WriteCSV(w io.Writer, d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	names := d.csvFeatureNames()
	if err := cw.Write(append(append([]string(nil), names...), csvLabelName(names))); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	rec := make([]string, d.D()+1)
	for i, row := range d.X {
		for j, v := range row {
			if d.IsMissing(i, j) {
				rec[j] = ""
			} else {
				rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		rec[d.D()] = strconv.Itoa(d.Y[i])
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("dataset: flushing CSV: %w", err)
	}
	return nil
}

// CSVSchema returns the schema under which ReadCSV reproduces this dataset
// from WriteCSV output: the same feature order, the same view boundaries
// (by column name), and the missing-mask-preserving NaN policy.
func (d *Dataset) CSVSchema() Schema {
	names := d.csvFeatureNames()
	views := make([]SchemaView, 0, len(d.Views))
	for _, v := range d.Views {
		cols := make([]string, len(v.Features))
		for i, f := range v.Features {
			cols[i] = names[f]
		}
		views = append(views, SchemaView{Name: v.Name, Columns: cols})
	}
	return Schema{
		Label:    csvLabelName(names),
		Features: append([]string(nil), names...),
		Views:    views,
		NaN:      NaNAsMissing,
	}
}
