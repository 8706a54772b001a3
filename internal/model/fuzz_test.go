package model

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadArtifact feeds arbitrary bytes to Load, the decoder behind every
// artifact file the CLI and the serve ModelDir watcher read: Load never
// panics, every artifact it accepts saves back to the identical bytes, and
// NewPredictor on it either fails with an error or scores one all-zero
// row.
func FuzzLoadArtifact(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-ridge-linear.iotml"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	// Two inputs that decode to the golden artifact but are not its bytes:
	// a trailing byte, and the header with one extra space.
	f.Add(append(append([]byte(nil), golden...), 0))
	hlen := binary.LittleEndian.Uint32(golden[len(magic):])
	hdr := golden[len(magic)+4 : len(magic)+4+int(hlen)]
	spaced := binary.LittleEndian.AppendUint32([]byte(magic), hlen+1)
	spaced = append(append(append(spaced, hdr[:1]...), ' '), hdr[1:]...)
	f.Add(append(spaced, golden[len(magic)+4+int(hlen):]...))
	f.Fuzz(func(t *testing.T, in []byte) {
		a, err := Load(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := a.Save(&out); err != nil {
			t.Fatalf("Save of a loaded artifact: %v", err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("loaded artifact saves back to %d different bytes (input %d)", out.Len(), len(in))
		}
		p, err := NewPredictor(a)
		if err != nil {
			return
		}
		scores, err := p.Scores([][]float64{make([]float64, a.Dim())})
		if err != nil {
			t.Fatalf("scoring a zero row: %v", err)
		}
		if len(scores) != 1 {
			t.Fatalf("%d scores for one row", len(scores))
		}
	})
}
