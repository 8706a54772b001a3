package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV drives the CSV ingester with arbitrary bytes under every NaN
// policy: it must never panic, and whenever it accepts an input the result
// must be a structurally valid dataset that survives a WriteCSV → ReadCSV
// round trip bit-for-bit — the property the real-data fit path depends on
// (mirrors partition.FuzzParse).
func FuzzReadCSV(f *testing.F) {
	seeds := []string{
		"a,b,label\n1,2,1\n3,4,-1\n",
		"face_0,face_1,iris_0,label\n0.5,-1.25,0.125,1\n-0.75,2,1.5,-1\n",
		"a,label\n1e308,-1\n",
		"a,label\n5e-324,1\n",            // subnormal
		"a,b,label\n,NaN,1\n1,2,-1\n",    // NaN-policy cells
		"a,b,label\n1,2,1\n3,4\n",        // ragged
		"a,a,label\n1,2,1\n",             // duplicate column
		"a,label\nx,1\n",                 // garbage cell
		"a,label\n+Inf,1\n",              // non-finite
		"a,label\n1,7\n",                 // bad label
		"label\n1\n",                     // no features
		"a,label\n",                      // no rows
		"",                               // empty
		"\"a\nb\",label\n1,1\n",          // quoted header with newline
		"a,label\n\"1\",\"1\"\n",         // quoted cells
		"a,b,label\n 1 , 2 ,1\n",         // padded cells
		"a,label\n-0,1\n",                // negative zero
		"a,label\n0x1p-3,1\n",            // hex float (ParseFloat accepts)
		"a,label\n1_0,1\n",               // underscore digits
		"a,b,c,label\n1,,3,1\n4,5,,-1\n", // scattered empties
		strings.Repeat("c,", 40) + "label\n" + strings.Repeat("1,", 40) + "1\n",
	}
	for _, s := range seeds {
		f.Add(s, 0)
	}
	f.Fuzz(func(t *testing.T, in string, policy int) {
		d, err := ReadCSV(strings.NewReader(in), fuzzSchema(policy))
		if err != nil {
			return // rejected inputs only need to not panic
		}
		checkAccepted(t, d)
	})
}

// FuzzReadJSONL is FuzzReadCSV for the JSONL ingester: arbitrary bytes
// under every NaN policy must never panic, and any accepted dataset must
// be valid, finite, and survive a WriteCSV → ReadCSV round trip bit for
// bit — a JSONL file and the CSV written from it train the same model.
func FuzzReadJSONL(f *testing.F) {
	seeds := []string{
		`{"a": 1.5, "b": -2, "label": 1}` + "\n" + `{"b": 0.25, "a": 3, "label": -1, "extra": 9}` + "\n",
		`{"a": 1, "b": 2, "label": 1}` + "\n" + `{"a": null, "b": 3, "label": -1}` + "\n" + `{"b": 4, "label": 1}` + "\n",
		"",                        // empty
		"{",                       // bad json
		`{"a": 1}`,                // no label
		`{"a": 1, "label": 2}`,    // bad label
		`{"a": 1, "label": "1"}`,  // string label
		`{"a": "x", "label": 1}`,  // string feature
		`{"a": null, "label": 1}`, // null cell
		`{"a": 1, "b": 2, "label": 1}` + "\n" + `{"a": 1, "label": 1}`, // absent key
		`{"label": 1}`,                               // no feature keys
		`{"a": 1e308, "label": -1}`,                  // huge
		`{"a": 5e-324, "label": 1}`,                  // subnormal
		`{"a": -0, "label": 1}`,                      // negative zero
		`{"a,b": 1, "label": 1}`,                     // comma in a name
		`{"a\"b": 1, "label": 1}`,                    // quote in a name
		`{"": 1, "label": 1}`,                        // empty name
		`{"a": 1, "label": 1} {"a": 2, "label": -1}`, // records on one line
		`{"a": [1], "label": 1}`,                     // array cell
		`{"a": 1, "label": 1.0}`,                     // float label
	}
	for _, s := range seeds {
		f.Add(s, 0)
	}
	f.Fuzz(func(t *testing.T, in string, policy int) {
		d, err := ReadJSONL(strings.NewReader(in), fuzzSchema(policy))
		if err != nil {
			return // rejected inputs only need to not panic
		}
		checkAccepted(t, d)
	})
}

// fuzzSchema maps a fuzzed int onto one of the three NaN policies.
func fuzzSchema(policy int) Schema {
	return Schema{NaN: NaNPolicy(((policy % 3) + 3) % 3)}
}

// checkAccepted asserts the properties every accepted dataset must have:
// it validates, is non-empty, holds only finite cells, and survives a
// WriteCSV → ReadCSV round trip bit for bit, missingness included.
func checkAccepted(t *testing.T, d *Dataset) {
	t.Helper()
	if err := d.Validate(); err != nil {
		t.Fatalf("accepted dataset fails Validate: %v", err)
	}
	if d.N() == 0 || d.D() == 0 {
		t.Fatalf("accepted empty dataset: %dx%d", d.N(), d.D())
	}
	for i, row := range d.X {
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite cell (%d,%d) = %v ingested", i, j, v)
			}
		}
	}
	// Round trip: what we write, we must read back bit-identically.
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatalf("WriteCSV on accepted dataset: %v", err)
	}
	rt, err := ReadCSV(bytes.NewReader(buf.Bytes()), d.CSVSchema())
	if err != nil {
		t.Fatalf("re-reading written CSV: %v\ncsv:\n%s", err, buf.Bytes())
	}
	if rt.N() != d.N() || rt.D() != d.D() {
		t.Fatalf("round trip %dx%d, want %dx%d", rt.N(), rt.D(), d.N(), d.D())
	}
	for i := range d.X {
		if rt.Y[i] != d.Y[i] {
			t.Fatalf("row %d label flipped", i)
		}
		for j := range d.X[i] {
			if math.Float64bits(rt.X[i][j]) != math.Float64bits(d.X[i][j]) {
				t.Fatalf("cell (%d,%d) bits changed: %v -> %v", i, j, d.X[i][j], rt.X[i][j])
			}
			if d.IsMissing(i, j) != rt.IsMissing(i, j) {
				t.Fatalf("cell (%d,%d) missingness changed", i, j)
			}
		}
	}
}
