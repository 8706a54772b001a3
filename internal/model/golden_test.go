package model

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/partition"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden artifact and score fixtures")

// goldenArtifact builds the committed golden model deterministically. The
// workload is synthetic but fully explicit — no RNG — and the kernel is
// linear with a ridge learner, so every floating-point operation on the
// training and scoring path (+, ×, ÷, √) is IEEE-754 exact and the fixture
// is reproducible on any conforming platform.
func goldenArtifact(t *testing.T) *Artifact {
	t.Helper()
	const n, d = 16, 4
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		cls := 1.0
		if i%2 == 0 {
			cls = -1.0
		}
		x[i] = make([]float64, d)
		for j := range x[i] {
			// A fixed quasi-random lattice plus a class shift.
			x[i][j] = cls*0.5 + math.Mod(float64((i+1)*(j+3))*0.37, 2.0) - 1.0
		}
		y[i] = int(cls)
	}
	p := partition.MustFromBlocks(d, [][]int{{1, 2}, {3, 4}})
	k := kernel.FromPartition(p, kernel.LinearFactory(), kernel.CombineSum)
	gram := kernel.Gram(k, x)
	trainer := kernelmachine.Ridge{Lambda: 1e-2}
	m, err := trainer.Train(gram, y)
	if err != nil {
		t.Fatalf("training golden model: %v", err)
	}
	spec, err := kernel.ToSpec(k)
	if err != nil {
		t.Fatal(err)
	}
	return &Artifact{
		LearnerKind: LearnerRidge,
		Learner:     trainer.String(),
		Partition:   p,
		KernelSpec:  spec,
		FeatureNames: []string{
			"color_0", "color_1", "texture_0", "texture_1",
		},
		TrainX: linalg.FromRows(x),
		Coeff:  m.Coefficients(),
		Bias:   m.Bias(),
	}
}

// goldenQueries are the fixed probe instances whose scores the fixture
// records.
func goldenQueries() [][]float64 {
	const m, d = 5, 4
	out := make([][]float64, m)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = math.Mod(float64((i+2)*(j+5))*0.61, 2.0) - 1.0
		}
	}
	return out
}

// goldenScores is the recorded-score fixture: IEEE-754 bit patterns, so the
// comparison is exact by construction and immune to any float formatting
// subtlety.
type goldenScores struct {
	ScoreBits []uint64  `json:"score_bits"`
	Scores    []float64 `json:"scores"` // human-readable mirror of ScoreBits
}

// TestGoldenArtifactLoadsAndReproducesScores is the format lock: the
// committed testdata/golden-ridge-linear.iotml must load under the current
// code and reproduce the committed scores bit-identically. Any accidental
// change to the file format, the kernel spec decoding, or the scoring path
// fails this test (and CI) instead of silently invalidating every artifact
// in the field. Regenerate deliberately with:
//
//	go test ./internal/model -run TestGolden -update
func TestGoldenArtifactLoadsAndReproducesScores(t *testing.T) {
	artPath := filepath.Join("testdata", "golden-ridge-linear.iotml")
	scoresPath := filepath.Join("testdata", "golden-scores.json")

	if *updateGolden {
		art := goldenArtifact(t)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := art.SaveFile(artPath); err != nil {
			t.Fatal(err)
		}
		pred, err := NewPredictor(art)
		if err != nil {
			t.Fatal(err)
		}
		scores, err := pred.Scores(goldenQueries())
		if err != nil {
			t.Fatal(err)
		}
		fix := goldenScores{Scores: scores}
		for _, s := range scores {
			fix.ScoreBits = append(fix.ScoreBits, math.Float64bits(s))
		}
		raw, err := json.MarshalIndent(fix, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scoresPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s and %s", artPath, scoresPath)
	}

	// The committed fixtures pin amd64 float codegen: on arm64/ppc64 the
	// compiler may contract mul-adds into FMA, shifting last bits of the
	// ridge solve and the scores. The format lock runs where CI runs
	// (amd64); the cross-platform guarantee is Load(Save(m)) on one
	// machine, covered by the round-trip tests above.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden fixtures are generated with amd64 float codegen; GOARCH=%s may fuse mul-adds (FMA) and differ in the last bit", runtime.GOARCH)
	}

	art, err := LoadFile(artPath)
	if err != nil {
		t.Fatalf("loading committed golden artifact: %v (regenerate with -update only if the format change is deliberate)", err)
	}
	// The golden artifact also pins in-memory fields the header carries.
	if art.LearnerKind != LearnerRidge {
		t.Errorf("LearnerKind = %q, want %q", art.LearnerKind, LearnerRidge)
	}
	if want := "12/34"; art.Partition.String() != want {
		t.Errorf("partition = %v, want %v", art.Partition, want)
	}

	raw, err := os.ReadFile(scoresPath)
	if err != nil {
		t.Fatal(err)
	}
	var fix goldenScores
	if err := json.Unmarshal(raw, &fix); err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pred.Scores(goldenQueries())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fix.ScoreBits) {
		t.Fatalf("scored %d queries, fixture has %d", len(got), len(fix.ScoreBits))
	}
	for i, s := range got {
		if math.Float64bits(s) != fix.ScoreBits[i] {
			t.Errorf("query %d: score %v (bits %016x), fixture %v (bits %016x)",
				i, s, math.Float64bits(s), fix.Scores[i], fix.ScoreBits[i])
		}
	}

	// The freshly rebuilt artifact must still serialize to the committed
	// bytes — a byte-level format lock on Save as well as Load.
	rebuilt := goldenArtifact(t)
	bufPath := filepath.Join(t.TempDir(), "rebuilt.iotml")
	if err := rebuilt.SaveFile(bufPath); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(bufPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(gotBytes) {
		t.Error("re-fitting the golden model produced different artifact bytes than the committed fixture")
	}
}
