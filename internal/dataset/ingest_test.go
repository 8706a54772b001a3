package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

const tinyCSV = `face_0,face_1,iris_0,label
0.5,-1.25,0.125,1
-0.75,2,1.5,-1
1,0,-0.5,1
`

func tinySchema() Schema {
	return Schema{
		Label: "label",
		Views: []SchemaView{
			{Name: "face", Columns: []string{"face_0", "face_1"}},
			{Name: "iris", Columns: []string{"iris_0"}},
		},
	}
}

func TestReadCSVBasic(t *testing.T) {
	d, err := ReadCSV(strings.NewReader(tinyCSV), tinySchema())
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 || d.D() != 3 {
		t.Fatalf("got %dx%d dataset", d.N(), d.D())
	}
	if d.X[0][1] != -1.25 || d.Y[1] != -1 {
		t.Fatalf("parsed values wrong: %v %v", d.X, d.Y)
	}
	if len(d.Views) != 2 || d.Views[0].Name != "face" || len(d.Views[0].Features) != 2 {
		t.Fatalf("views wrong: %+v", d.Views)
	}
	if got := d.ViewPartition().String(); got != "12/3" {
		t.Fatalf("view partition %q", got)
	}
}

func TestReadCSVFeatureSubsetAndOrder(t *testing.T) {
	s := Schema{Features: []string{"iris_0", "face_0"}} // reordered subset
	d, err := ReadCSV(strings.NewReader(tinyCSV), s)
	if err != nil {
		t.Fatal(err)
	}
	if d.D() != 2 || d.FeatureNames[0] != "iris_0" || d.X[0][0] != 0.125 || d.X[0][1] != 0.5 {
		t.Fatalf("schema order not respected: %v %v", d.FeatureNames, d.X[0])
	}
}

func TestReadCSVMalformed(t *testing.T) {
	cases := map[string]struct {
		csv    string
		schema Schema
		want   string // substring of the error
	}{
		"empty input":        {"", Schema{}, "no header"},
		"header only":        {"a,b,label\n", Schema{}, "no data rows"},
		"no label column":    {"a,b\n1,2\n", Schema{}, `no label column "label"`},
		"ragged row":         {"a,b,label\n1,2,1\n1,2\n", Schema{}, "line 3"},
		"wide row":           {"a,b,label\n1,2,1,9\n", Schema{}, "line 2"},
		"bad label":          {"a,label\n1,2\n", Schema{}, "bad label"},
		"non-numeric label":  {"a,label\n1,yes\n", Schema{}, "bad label"},
		"garbage feature":    {"a,label\nx,1\n", Schema{}, `column "a"`},
		"inf feature":        {"a,label\n+Inf,1\n", Schema{}, "non-finite"},
		"nan under reject":   {"a,label\nNaN,1\n", Schema{}, "policy reject"},
		"empty under reject": {"a,label\n,1\n", Schema{}, "policy reject"},
		"duplicate column":   {"a,a,label\n1,2,1\n", Schema{}, "duplicate"},
		"unknown feature":    {"a,label\n1,1\n", Schema{Features: []string{"b"}}, `feature "b" not in CSV header`},
		"label as feature":   {"a,label\n1,1\n", Schema{Features: []string{"label"}}, "listed as a feature"},
		"unknown view col":   {"a,label\n1,1\n", Schema{Views: []SchemaView{{Name: "v", Columns: []string{"zz"}}}}, `unknown feature column "zz"`},
		"overlapping views": {"a,b,label\n1,2,1\n", Schema{Views: []SchemaView{
			{Name: "v1", Columns: []string{"a", "b"}}, {Name: "v2", Columns: []string{"b"}},
		}}, "two views"},
		"all rows dropped": {"a,label\n,1\n", Schema{NaN: NaNDropRow}, "no data rows"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.csv), tc.schema)
			if err == nil {
				t.Fatalf("malformed input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestReadCSVNaNPolicies(t *testing.T) {
	in := "a,b,label\n1,2,1\n,3,-1\n4,NaN,1\n5,6,-1\n"
	t.Run("missing", func(t *testing.T) {
		d, err := ReadCSV(strings.NewReader(in), Schema{NaN: NaNAsMissing})
		if err != nil {
			t.Fatal(err)
		}
		if d.N() != 4 {
			t.Fatalf("kept %d rows, want 4", d.N())
		}
		if !d.IsMissing(1, 0) || !d.IsMissing(2, 1) || d.IsMissing(0, 0) || d.IsMissing(3, 1) {
			t.Fatalf("missing mask wrong: %v", d.Missing)
		}
		if d.X[1][0] != 0 {
			t.Fatalf("missing cell not zeroed: %v", d.X[1])
		}
	})
	t.Run("drop", func(t *testing.T) {
		d, err := ReadCSV(strings.NewReader(in), Schema{NaN: NaNDropRow})
		if err != nil {
			t.Fatal(err)
		}
		if d.N() != 2 || d.Missing != nil {
			t.Fatalf("kept %d rows (mask %v), want 2 complete rows", d.N(), d.Missing)
		}
		if d.X[0][0] != 1 || d.X[1][0] != 5 {
			t.Fatalf("wrong rows kept: %v", d.X)
		}
	})
}

func TestReadJSONLBasic(t *testing.T) {
	in := `{"a": 1.5, "b": -2, "label": 1}
{"b": 0.25, "a": 3, "label": -1, "extra": 9}
`
	d, err := ReadJSONL(strings.NewReader(in), Schema{})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 2 || d.D() != 2 {
		t.Fatalf("got %dx%d", d.N(), d.D())
	}
	// Derived feature order is sorted: a, b — regardless of key order.
	if d.FeatureNames[0] != "a" || d.X[1][0] != 3 || d.X[1][1] != 0.25 || d.Y[1] != -1 {
		t.Fatalf("parsed %v %v %v", d.FeatureNames, d.X, d.Y)
	}
}

func TestReadJSONLMalformed(t *testing.T) {
	cases := map[string]struct {
		in     string
		schema Schema
		want   string
	}{
		"empty":             {"", Schema{}, "no data records"},
		"bad json":          {"{", Schema{}, "record 1"},
		"no label":          {`{"a": 1}`, Schema{}, `no label key "label"`},
		"bad label":         {`{"a": 1, "label": 2}`, Schema{}, "bad label"},
		"string label":      {`{"a": 1, "label": "1"}`, Schema{}, "bad label"},
		"string feature":    {`{"a": "x", "label": 1}`, Schema{}, "non-numeric"},
		"null under reject": {`{"a": null, "label": 1}`, Schema{}, "policy reject"},
		"absent under reject": {
			`{"a": 1, "b": 2, "label": 1}` + "\n" + `{"a": 1, "label": 1}`,
			Schema{}, "policy reject",
		},
		"only label": {`{"label": 1}`, Schema{}, "no feature keys"},
		"spaced key": {`{" a": 1, "label": 1}`, Schema{}, "surrounding space"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ReadJSONL(strings.NewReader(tc.in), tc.schema)
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestReadJSONLNaNPolicies(t *testing.T) {
	in := `{"a": 1, "b": 2, "label": 1}
{"a": null, "b": 3, "label": -1}
{"b": 4, "label": 1}
`
	d, err := ReadJSONL(strings.NewReader(in), Schema{NaN: NaNAsMissing})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 3 || !d.IsMissing(1, 0) || !d.IsMissing(2, 0) || d.IsMissing(0, 0) {
		t.Fatalf("missing mask wrong: n=%d mask=%v", d.N(), d.Missing)
	}
	d, err = ReadJSONL(strings.NewReader(in), Schema{NaN: NaNDropRow})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 1 {
		t.Fatalf("drop kept %d rows, want 1", d.N())
	}
}

// TestCSVRoundTripExact: WriteCSV → ReadCSV under the dataset's own
// CSVSchema reproduces the synthetic workload bit-for-bit — values,
// labels, names, views, and missing mask.
func TestCSVRoundTripExact(t *testing.T) {
	cfg := DefaultBiometricConfig()
	cfg.N = 50
	d := SyntheticBiometric(cfg, stats.NewRNG(3))
	d.Standardize()
	d.InjectMCAR(0.05, stats.NewRNG(4))

	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadCSV(&buf, d.CSVSchema())
	if err != nil {
		t.Fatal(err)
	}
	if rt.N() != d.N() || rt.D() != d.D() {
		t.Fatalf("round trip is %dx%d, want %dx%d", rt.N(), rt.D(), d.N(), d.D())
	}
	for i := range d.X {
		if rt.Y[i] != d.Y[i] {
			t.Fatalf("row %d label %d != %d", i, rt.Y[i], d.Y[i])
		}
		for j := range d.X[i] {
			if d.IsMissing(i, j) != rt.IsMissing(i, j) {
				t.Fatalf("cell (%d,%d) missingness diverged", i, j)
			}
			if rt.X[i][j] != d.X[i][j] {
				t.Fatalf("cell (%d,%d): %v != %v (bits must match)", i, j, rt.X[i][j], d.X[i][j])
			}
		}
	}
	for j, name := range d.FeatureNames {
		if rt.FeatureNames[j] != name {
			t.Fatalf("feature %d named %q, want %q", j, rt.FeatureNames[j], name)
		}
	}
	if !rt.ViewPartition().Equal(d.ViewPartition()) {
		t.Fatalf("view structure diverged: %v vs %v", rt.ViewPartition(), d.ViewPartition())
	}
}

// TestCSVRoundTripWithFeatureNamedLabel: a dataset ingested under a
// custom label column may carry a feature legally named "label"; WriteCSV
// and CSVSchema must agree on a non-colliding label column so the round
// trip still holds.
func TestCSVRoundTripWithFeatureNamedLabel(t *testing.T) {
	in := "label,x,y\n0.5,1.5,1\n-0.25,2.5,-1\n"
	d, err := ReadCSV(strings.NewReader(in), Schema{Label: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if d.D() != 2 || d.FeatureNames[0] != "label" {
		t.Fatalf("ingested %v", d.FeatureNames)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "label,x,_label\n") {
		t.Fatalf("header did not dodge the feature named label:\n%s", buf.String())
	}
	rt, err := ReadCSV(&buf, d.CSVSchema())
	if err != nil {
		t.Fatal(err)
	}
	if rt.N() != d.N() || rt.X[0][0] != d.X[0][0] || rt.Y[1] != d.Y[1] {
		t.Fatalf("round trip diverged: %v %v vs %v %v", rt.X, rt.Y, d.X, d.Y)
	}
}

// TestWriteCSVExtremeFloats: shortest-round-trip formatting must survive
// subnormals, huge magnitudes, and negative zero.
func TestWriteCSVExtremeFloats(t *testing.T) {
	d := &Dataset{
		X: [][]float64{{math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Copysign(0, -1)}},
		Y: []int{1},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadCSV(&buf, Schema{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range d.X[0] {
		if math.Float64bits(rt.X[0][j]) != math.Float64bits(d.X[0][j]) {
			t.Fatalf("cell %d: %x != %x", j, math.Float64bits(rt.X[0][j]), math.Float64bits(d.X[0][j]))
		}
	}
}
