package model

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/partition"
)

// fitArtifact trains a learner on a small deterministic workload and
// packages it, exercising the same path core.FitResult.Artifact uses.
func fitArtifact(t *testing.T, seed int64, trainer kernelmachine.Trainer, combiner kernel.Combiner) *Artifact {
	t.Helper()
	return fitArtifactWith(t, seed, trainer, kernel.RBFFactory(1.0), combiner)
}

// fitArtifactWith is fitArtifact with the block-kernel factory chosen.
func fitArtifactWith(t *testing.T, seed int64, trainer kernelmachine.Trainer, factory kernel.BlockKernelFactory, combiner kernel.Combiner) *Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n, d = 30, 4
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, d)
		cls := 1.0
		if i%2 == 0 {
			cls = -1.0
		}
		for j := range x[i] {
			x[i][j] = cls*0.7 + rng.NormFloat64()
		}
		y[i] = int(cls)
	}
	p := partition.MustFromBlocks(d, [][]int{{1, 2}, {3, 4}})
	k := kernel.FromPartition(p, factory, combiner)
	gram := kernel.Gram(k, x)
	m, err := trainer.Train(gram, y)
	if err != nil {
		t.Fatalf("training: %v", err)
	}
	spec, err := kernel.ToSpec(k)
	if err != nil {
		t.Fatalf("ToSpec: %v", err)
	}
	return &Artifact{
		LearnerKind: LearnerRidge,
		Learner:     trainer.String(),
		Partition:   p,
		KernelSpec:  spec,
		TrainX:      linalg.FromRows(x),
		Coeff:       m.Coefficients(),
		Bias:        m.Bias(),
	}
}

func queries(seed int64, n, d int) [][]float64 {
	rng := rand.New(rand.NewSource(seed * 31))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, d)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

func TestSaveLoadRoundTripIsBitIdentical(t *testing.T) {
	for _, combiner := range []kernel.Combiner{kernel.CombineSum, kernel.CombineProduct} {
		art := fitArtifact(t, 1, kernelmachine.Ridge{Lambda: 1e-2}, combiner)
		var buf bytes.Buffer
		if err := art.Save(&buf); err != nil {
			t.Fatalf("Save: %v", err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if !loaded.Partition.Equal(art.Partition) {
			t.Fatalf("partition %v round-tripped as %v", art.Partition, loaded.Partition)
		}
		if loaded.Bias != art.Bias || loaded.LearnerKind != art.LearnerKind || loaded.Learner != art.Learner {
			t.Fatalf("header fields drifted: %+v vs %+v", loaded, art)
		}
		for i := range art.Coeff {
			if math.Float64bits(loaded.Coeff[i]) != math.Float64bits(art.Coeff[i]) {
				t.Fatalf("coeff %d: %v != %v", i, loaded.Coeff[i], art.Coeff[i])
			}
		}
		for i := range art.TrainX.Data {
			if math.Float64bits(loaded.TrainX.Data[i]) != math.Float64bits(art.TrainX.Data[i]) {
				t.Fatalf("train row datum %d drifted", i)
			}
		}

		// The headline property: scores from the loaded artifact are
		// bit-identical to scores from the in-memory one.
		pIn, err := NewPredictor(art)
		if err != nil {
			t.Fatalf("NewPredictor(in-memory): %v", err)
		}
		pOut, err := NewPredictor(loaded)
		if err != nil {
			t.Fatalf("NewPredictor(loaded): %v", err)
		}
		q := queries(1, 13, art.Dim())
		want, err := pIn.Scores(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pOut.Scores(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("combiner %v: score %d = %v after round trip, want %v", combiner, i, got[i], want[i])
			}
		}
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	art := fitArtifact(t, 2, kernelmachine.Ridge{}, kernel.CombineSum)
	var a, b bytes.Buffer
	if err := art.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := art.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of one artifact produced different bytes")
	}
}

func TestPredictorBatchedMatchesSingle(t *testing.T) {
	art := fitArtifact(t, 3, kernelmachine.Ridge{}, kernel.CombineSum)
	p, err := NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	q := queries(3, 16, art.Dim())
	batched, err := p.Scores(q)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range q {
		single, err := p.Scores([][]float64{row})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(single[0]) != math.Float64bits(batched[i]) {
			t.Fatalf("row %d: single score %v != batched %v", i, single[0], batched[i])
		}
	}
}

func TestPredictorScratchReuseKeepsScoresStable(t *testing.T) {
	art := fitArtifact(t, 4, kernelmachine.Ridge{}, kernel.CombineSum)
	p, err := NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	q := queries(4, 8, art.Dim())
	first, err := p.Scores(q)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), first...)
	// Alternate batch shapes to force scratch reshapes, then re-score.
	if _, err := p.Scores(q[:3]); err != nil {
		t.Fatal(err)
	}
	var dst []float64
	dst, err = p.ScoresInto(dst, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
			t.Fatalf("score %d drifted across scratch reuse", i)
		}
	}
}

func TestPredictorRejectsBadRows(t *testing.T) {
	art := fitArtifact(t, 5, kernelmachine.Ridge{}, kernel.CombineSum)
	p, err := NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][][]float64{
		"wrong dim": {{1, 2}},
		"nan":       {{1, math.NaN(), 3, 4}},
		"+inf":      {{1, 2, math.Inf(1), 4}},
		"-inf":      {{1, 2, 3, math.Inf(-1)}},
	}
	for name, rows := range cases {
		if _, err := p.Scores(rows); err == nil {
			t.Errorf("%s: accepted invalid input", name)
		}
	}
	if got, err := p.Scores(nil); err != nil || len(got) != 0 {
		t.Errorf("empty batch: got %v, %v", got, err)
	}
}

func TestLoadRejectsCorruptArtifacts(t *testing.T) {
	art := fitArtifact(t, 6, kernelmachine.Ridge{}, kernel.CombineSum)
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("err = %v, want magic error", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		// Header starts at byte 12; bump the version digit in the JSON.
		i := bytes.Index(bad, []byte(`"format_version":1`))
		if i < 0 {
			t.Fatal("version field not found")
		}
		bad[i+len(`"format_version":`)] = '9'
		if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "format version") {
			t.Fatalf("err = %v, want format-version error", err)
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-5] ^= 0x40
		if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("err = %v, want checksum error", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(good[:len(good)-16])); err == nil {
			t.Fatal("loaded a truncated artifact")
		}
	})
	t.Run("implausible header length", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(bad[8:], 1<<30)
		if _, err := Load(bytes.NewReader(bad)); err == nil {
			t.Fatal("accepted an implausible header length")
		}
	})
	// Hostile payload shapes must be rejected by the size caps before any
	// allocation — not crash with a makeslice panic or attempt an
	// OOM-sized make. rewriteShape regenerates the header with the given
	// n_train so the length field stays consistent.
	rewriteShape := func(nTrain string) []byte {
		hlen := binary.LittleEndian.Uint32(good[8:12])
		hdr := good[12 : 12+int(hlen)]
		newHdr := bytes.Replace(hdr, []byte(`"n_train":30`), []byte(`"n_train":`+nTrain), 1)
		if bytes.Equal(newHdr, hdr) {
			t.Fatalf("n_train field not found in header %s", hdr)
		}
		out := append([]byte(nil), good[:8]...)
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(newHdr)))
		out = append(out, lenBuf[:]...)
		out = append(out, newHdr...)
		return append(out, good[12+int(hlen):]...)
	}
	t.Run("overflowing shape", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(rewriteShape("3037000500"))); err == nil || !strings.Contains(err.Error(), "implausible shape") {
			t.Fatalf("err = %v, want implausible-shape error", err)
		}
	})
	t.Run("oversized payload", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(rewriteShape("100000000"))); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("err = %v, want payload-cap error", err)
		}
	})
	t.Run("data after the payload", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0)
		if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "after the payload") {
			t.Fatalf("err = %v, want trailing-data error", err)
		}
	})
	t.Run("header in another encoding", func(t *testing.T) {
		// Same contents, one extra space: it decodes to the same artifact
		// but is not the bytes Save writes, so it would not save back.
		bad := rewriteShape(" 30")
		if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "encoding Save writes") {
			t.Fatalf("err = %v, want non-canonical-header error", err)
		}
	})
}

// TestLoadAllocatesNoMoreThanTheInput: a short input whose header claims a
// large artifact — n_train 1,000,000 × dim 12, about 104 MB of payload, or
// a 16 MiB header — fails with an error after allocating memory in
// proportion to its own bytes, not to the sizes it claims.
func TestLoadAllocatesNoMoreThanTheInput(t *testing.T) {
	hdr, err := json.Marshal(header{
		FormatVersion: FormatVersion,
		LearnerKind:   LearnerRidge,
		Kernel:        &kernel.Spec{Kind: kernel.SpecLinear},
		NumTrain:      1_000_000,
		Dim:           12,
	})
	if err != nil {
		t.Fatal(err)
	}
	claimsPayload := binary.LittleEndian.AppendUint32([]byte(magic), uint32(len(hdr)))
	claimsPayload = append(append(claimsPayload, hdr...), make([]byte, 16)...)
	claimsHeader := binary.LittleEndian.AppendUint32([]byte(magic), maxHeaderBytes)
	claimsHeader = append(claimsHeader, hdr...)
	for _, tc := range []struct {
		claims string
		in     []byte
	}{{"payload", claimsPayload}, {"header", claimsHeader}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(bytes.NewReader(tc.in))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "EOF") {
			t.Errorf("%s: err = %v, want a truncation error", tc.claims, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: loading a %d-byte input allocated %d bytes", tc.claims, len(tc.in), grew)
		}
	}
}

// TestLoadRejectsOverDeepKernelSpec: an artifact whose kernel spec nests
// Normalized 16 levels deep (a few hundred bytes that would cost seconds
// per kernel value) fails to load with an error; it is never evaluated.
func TestLoadRejectsOverDeepKernelSpec(t *testing.T) {
	art := fitArtifact(t, 8, kernelmachine.Ridge{}, kernel.CombineSum)
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	oldSpec, err := json.Marshal(art.KernelSpec)
	if err != nil {
		t.Fatal(err)
	}
	deep := &kernel.Spec{Kind: kernel.SpecRBF, Gamma: 0.5}
	for i := 1; i < 16; i++ {
		deep = &kernel.Spec{Kind: kernel.SpecNormalized, Base: deep}
	}
	deepSpec, err := json.Marshal(deep)
	if err != nil {
		t.Fatal(err)
	}
	hlen := binary.LittleEndian.Uint32(good[8:12])
	hdr := good[12 : 12+int(hlen)]
	newHdr := bytes.Replace(hdr, oldSpec, deepSpec, 1)
	if bytes.Equal(newHdr, hdr) {
		t.Fatalf("kernel spec %s not found in header %s", oldSpec, hdr)
	}
	bad := append([]byte(nil), good[:8]...)
	bad = binary.LittleEndian.AppendUint32(bad, uint32(len(newHdr)))
	bad = append(bad, newHdr...)
	bad = append(bad, good[12+int(hlen):]...)
	if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("err = %v, want a spec-nesting error", err)
	}
}

func TestValidateCatchesInconsistencies(t *testing.T) {
	base := func() *Artifact { return fitArtifact(t, 7, kernelmachine.Ridge{}, kernel.CombineSum) }

	a := base()
	a.Coeff = a.Coeff[:len(a.Coeff)-1]
	if err := a.Validate(); err == nil {
		t.Error("accepted coeff/row count mismatch")
	}

	a = base()
	a.KernelSpec = nil
	if err := a.Validate(); err == nil {
		t.Error("accepted missing kernel spec")
	}

	a = base()
	a.KernelSpec = &kernel.Spec{Kind: kernel.SpecSubspace,
		Features: []int{99}, Base: &kernel.Spec{Kind: kernel.SpecLinear}}
	if err := a.Validate(); err == nil {
		t.Error("accepted kernel spec addressing features beyond dim")
	}

	a = base()
	a.TrainX = nil
	if err := a.Validate(); err == nil {
		t.Error("accepted missing training rows")
	}

	a = base()
	a.FeatureNames = []string{"only-one"}
	if err := a.Validate(); err == nil {
		t.Error("accepted feature-name count mismatch")
	}
}

// TestFingerprintIsStableAndDiscriminating pins the hot-swap detection
// contract: a fingerprint survives a save/load round trip unchanged,
// identical artifacts fingerprint equal, and changing any persisted number
// changes the fingerprint.
func TestFingerprintIsStableAndDiscriminating(t *testing.T) {
	a := fitArtifact(t, 1, kernelmachine.Ridge{Lambda: 1e-2}, kernel.CombineSum)
	fp, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q is not 16 hex digits", fp)
	}

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := loaded.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp2 != fp {
		t.Fatalf("fingerprint changed across save/load: %q -> %q", fp, fp2)
	}

	same := fitArtifact(t, 1, kernelmachine.Ridge{Lambda: 1e-2}, kernel.CombineSum)
	sameFP, err := same.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if sameFP != fp {
		t.Fatalf("identical fits fingerprint differently: %q vs %q", sameFP, fp)
	}

	other := fitArtifact(t, 2, kernelmachine.Ridge{Lambda: 1e-2}, kernel.CombineSum)
	otherFP, err := other.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if otherFP == fp {
		t.Fatalf("different fits share fingerprint %q", fp)
	}

	// A one-bit payload perturbation must change the fingerprint.
	bumped := fitArtifact(t, 1, kernelmachine.Ridge{Lambda: 1e-2}, kernel.CombineSum)
	bumped.Bias = math.Nextafter(bumped.Bias, math.Inf(1))
	bumpedFP, err := bumped.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if bumpedFP == fp {
		t.Fatal("bias perturbation did not change the fingerprint")
	}
}
