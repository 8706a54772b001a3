package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/model"
)

// testArtifact fits a small deterministic model directly (no lattice
// search — the serving layer is agnostic to how the fit was selected).
func testArtifact(t *testing.T) *model.Artifact {
	t.Helper()
	return testArtifactSeed(t, 11)
}

// testArtifactSeed fits a model from a seed-determined dataset; different
// seeds yield models with different coefficients (and so different scores
// and fingerprints) — the raw material of the hot-swap tests.
func testArtifactSeed(t *testing.T, seed int64) *model.Artifact {
	t.Helper()
	return biometricArtifact(t, seed, 2)
}

// biometricArtifact fits the 36-row biometric model with noiseFeatures
// pure-noise features (6+noiseFeatures features in all).
func biometricArtifact(t testing.TB, seed int64, noiseFeatures int) *model.Artifact {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := dataset.BiometricConfig{N: 36, FacePerDim: 2, Noise: 0.8, IrrelevantSD: 1, NoiseFeatures: noiseFeatures}
	d := dataset.SyntheticBiometric(cfg, rng)
	d.Standardize()
	p := d.ViewPartition()
	k := kernel.FromPartition(p, kernel.RBFFactory(1.0), kernel.CombineSum)
	gram := kernel.Gram(k, d.X)
	trainer := kernelmachine.Ridge{Lambda: 1e-2}
	m, err := trainer.Train(gram, d.Y)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := kernel.ToSpec(k)
	if err != nil {
		t.Fatal(err)
	}
	return &model.Artifact{
		LearnerKind:  model.LearnerKindOf(trainer),
		Learner:      trainer.String(),
		Partition:    p,
		KernelSpec:   spec,
		FeatureNames: d.FeatureNames,
		TrainX:       linalg.FromRows(d.X),
		Coeff:        m.Coefficients(),
		Bias:         m.Bias(),
	}
}

// newTestServer builds a single-model server (id "default", auto-resolved
// as the default model) plus an httptest listener over its Handler.
func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server, *model.Artifact) {
	t.Helper()
	art := testArtifact(t)
	reg := NewRegistry()
	if err := reg.Load("default", art); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), reg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs, art
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func postPredict(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, url+"/v1/models/default/predict", body)
}

// decodeError unpacks the structured error envelope.
func decodeError(t *testing.T, body []byte) errorDetail {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("response is not an error envelope: %v: %s", err, body)
	}
	return env.Error
}

func testQueries(dim, n int) [][]float64 {
	rng := rand.New(rand.NewSource(99))
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, dim)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// offlineScores scores q against art in memory — the reference the serving
// answers must match bit-for-bit.
func offlineScores(t *testing.T, art *model.Artifact, q [][]float64) []float64 {
	t.Helper()
	pred, err := model.NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := pred.Scores(q)
	if err != nil {
		t.Fatal(err)
	}
	return scores
}

func TestHealthzAndModelEndpoints(t *testing.T) {
	_, hs, art := newTestServer(t)

	resp, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if hz.Status != "ok" {
		t.Fatalf("healthz = %+v", hz)
	}
	if len(hz.Models) != 1 || hz.Models[0].ID != "default" || len(hz.Models[0].Fingerprint) != 16 {
		t.Fatalf("healthz models = %+v", hz.Models)
	}

	mresp, err := http.Get(hs.URL + "/v1/models/default")
	if err != nil {
		t.Fatal(err)
	}
	var mi modelResponse
	err = json.NewDecoder(mresp.Body).Decode(&mi)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mi.Dim != art.Dim() || mi.NumTrain != art.NumTrain() || mi.FormatVersion != model.FormatVersion {
		t.Fatalf("model info = %+v", mi)
	}
	if mi.Partition != art.Partition.String() {
		t.Fatalf("partition %q, want %q", mi.Partition, art.Partition)
	}
	if mi.ID != "default" || len(mi.Fingerprint) != 16 || mi.Swaps != 0 {
		t.Fatalf("model registry fields = %+v", mi)
	}

	t.Run("models listing", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ml modelsResponse
		if err := json.NewDecoder(resp.Body).Decode(&ml); err != nil {
			t.Fatal(err)
		}
		if len(ml.Models) != 1 || ml.Models[0].ID != "default" || ml.Models[0].Dim != art.Dim() {
			t.Fatalf("models = %+v", ml.Models)
		}
	})

	t.Run("unknown model 404s with envelope", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/v1/models/nope")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
		if e := decodeError(t, buf.Bytes()); e.Code != CodeModelNotFound {
			t.Fatalf("code %q, want %q", e.Code, CodeModelNotFound)
		}
	})

	t.Run("unrouted path 404s with envelope", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/nope")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status %d, want 404", resp.StatusCode)
		}
		decodeError(t, buf.Bytes()) // must be the envelope, not net/http plain text
	})
}

// TestPredictMatchesInMemoryScoresBitIdentically is the serving half of the
// round-trip acceptance property: predict answers — batched or single —
// are bit-identical to scoring the artifact in memory.
func TestPredictMatchesInMemoryScoresBitIdentically(t *testing.T) {
	_, hs, art := newTestServer(t)
	q := testQueries(art.Dim(), 9)
	want := offlineScores(t, art, q)

	// One batched request.
	resp, body := postPredict(t, hs.URL, PredictRequest{Instances: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	var batched PredictResponse
	if err := json.Unmarshal(body, &batched); err != nil {
		t.Fatal(err)
	}
	if len(batched.Scores) != len(q) || len(batched.Labels) != len(q) {
		t.Fatalf("got %d scores / %d labels for %d instances", len(batched.Scores), len(batched.Labels), len(q))
	}
	for i := range want {
		if math.Float64bits(batched.Scores[i]) != math.Float64bits(want[i]) {
			t.Fatalf("batched score %d = %v, in-memory %v", i, batched.Scores[i], want[i])
		}
		wantLabel := 1
		if want[i] < 0 {
			wantLabel = -1
		}
		if batched.Labels[i] != wantLabel {
			t.Fatalf("label %d = %d, want %d", i, batched.Labels[i], wantLabel)
		}
	}

	// One request per instance, exercising the "instance" convenience form.
	for i, row := range q {
		resp, body := postPredict(t, hs.URL, map[string]any{"instance": row})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("single predict %d status %d: %s", i, resp.StatusCode, body)
		}
		var single PredictResponse
		if err := json.Unmarshal(body, &single); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(single.Scores[0]) != math.Float64bits(want[i]) {
			t.Fatalf("single score %d = %v, in-memory %v", i, single.Scores[0], want[i])
		}
	}
}

// TestMultiModelRouting serves two different models at once and pins that
// /v1/models/{id}/predict routes each request to the right one.
func TestMultiModelRouting(t *testing.T) {
	artA := testArtifactSeed(t, 11)
	artB := testArtifactSeed(t, 23)
	reg := NewRegistry()
	if err := reg.Load("alpha", artA); err != nil {
		t.Fatal(err)
	}
	if err := reg.Load("beta", artB); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), reg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	q := testQueries(artA.Dim(), 7)
	wantA := offlineScores(t, artA, q)
	wantB := offlineScores(t, artB, q)
	if math.Float64bits(wantA[0]) == math.Float64bits(wantB[0]) {
		t.Fatal("test models score identically; routing would be unobservable")
	}

	for _, tc := range []struct {
		path string
		want []float64
	}{
		{"/v1/models/alpha/predict", wantA},
		{"/v1/models/beta/predict", wantB},
	} {
		resp, body := postJSON(t, hs.URL+tc.path, PredictRequest{Instances: q})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", tc.path, resp.StatusCode, body)
		}
		var pr PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		for i := range tc.want {
			if math.Float64bits(pr.Scores[i]) != math.Float64bits(tc.want[i]) {
				t.Fatalf("%s score %d = %v, want %v", tc.path, i, pr.Scores[i], tc.want[i])
			}
		}
	}

	if ids := s.Registry().IDs(); len(ids) != 2 || ids[0] != "alpha" || ids[1] != "beta" {
		t.Fatalf("IDs = %v", ids)
	}
}

// TestConcurrentRequestsAreCoalesced pins drain-then-flush batching: while
// the single worker is busy with request 1, the other 15 queue behind it,
// and the worker's next batch takes all 15 at once. Every client still
// receives its own score, bit-identical to in-memory scoring.
func TestConcurrentRequestsAreCoalesced(t *testing.T) {
	s, hs, art := newTestServer(t, WithWorkers(1), WithMaxBatch(64))
	p := parkWorkers(t, s, "default")
	pipe := s.reg.lookup("default").state.Load().pipe
	const clients = 16
	q := testQueries(art.Dim(), clients)
	want := offlineScores(t, art, q)

	bodies := make([][]byte, clients)
	for c := range bodies {
		var err error
		if bodies[c], err = json.Marshal(PredictRequest{Instances: [][]float64{q[c]}}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	send := func(c int) {
		defer wg.Done()
		resp, err := http.Post(hs.URL+"/v1/models/default/predict", "application/json", bytes.NewReader(bodies[c]))
		if err != nil {
			errs <- fmt.Errorf("client %d: %v", c, err)
			return
		}
		defer resp.Body.Close()
		var pr PredictResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("client %d: status %d, decode error %v", c, resp.StatusCode, err)
			return
		}
		if math.Float64bits(pr.Scores[0]) != math.Float64bits(want[c]) {
			errs <- fmt.Errorf("client %d: score %v, want %v", c, pr.Scores[0], want[c])
		}
	}
	wg.Add(1)
	go send(0)
	p.waitEntered(t) // the worker holds request 1 alone
	for c := 1; c < clients; c++ {
		wg.Add(1)
		go send(c)
	}
	waitFor(t, "15 queued requests", func() bool { return len(pipe.queue) == clients-1 })
	p.releaseAll()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	m, ok := s.SnapshotModel("default")
	if !ok {
		t.Fatal("default model has no metrics")
	}
	if m.Instances != clients {
		t.Fatalf("scored %d instances, want %d", m.Instances, clients)
	}
	if m.Batches != 2 {
		t.Errorf("%d batches, want 2 (request 1 alone, then the 15 queued behind it)", m.Batches)
	}
	if m.MaxBatchSize != clients-1 {
		t.Errorf("max batch size %d, want %d", m.MaxBatchSize, clients-1)
	}
	if m.TotalBatchMicros <= 0 {
		t.Errorf("batch latency metrics not recorded: %+v", m)
	}
}

// TestOversizedRequestIsChunkedCorrectly pins the scratch-bounding rule: a
// single request bigger than MaxBatch is scored in MaxBatch-sized chunks,
// bit-identically to in-memory scoring.
func TestOversizedRequestIsChunkedCorrectly(t *testing.T) {
	s, hs, art := newTestServer(t, WithMaxBatch(4))
	q := testQueries(art.Dim(), 11) // 11 instances, 4-instance chunks
	want := offlineScores(t, art, q)
	resp, body := postPredict(t, hs.URL, PredictRequest{Instances: q})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Scores) != len(q) {
		t.Fatalf("got %d scores for %d instances", len(pr.Scores), len(q))
	}
	for i := range want {
		if math.Float64bits(pr.Scores[i]) != math.Float64bits(want[i]) {
			t.Fatalf("chunked score %d = %v, in-memory %v", i, pr.Scores[i], want[i])
		}
	}
	if got := s.Totals().Instances; got != int64(len(q)) {
		t.Fatalf("metrics counted %d instances, want %d", got, len(q))
	}
}

func TestPredictValidation(t *testing.T) {
	_, hs, art := newTestServer(t)
	dim := art.Dim()
	ok := make([]float64, dim)
	okRow, err := json.Marshal(ok)
	if err != nil {
		t.Fatal(err)
	}

	// msg is the start of the error message: the texts `iotml predict`
	// prints too, since both decode through DecodePredictRequest.
	cases := []struct {
		name   string
		body   string
		status int
		code   string
		msg    string
	}{
		{"wrong dim", `{"instances": [[1, 2]]}`, http.StatusBadRequest, CodeInvalidRequest, "instance 0: model: instance has 2 features"},
		{"empty", `{"instances": []}`, http.StatusBadRequest, CodeInvalidRequest, "request has no instances"},
		{"no instances", `{}`, http.StatusBadRequest, CodeInvalidRequest, "request has no instances"},
		{"null body", `null`, http.StatusBadRequest, CodeInvalidRequest, "request has no instances"},
		{"nan literal", `{"instances": [[NaN]]}`, http.StatusBadRequest, CodeInvalidRequest, "decoding request: "},
		{"unknown field", `{"rows": [[1]]}`, http.StatusBadRequest, CodeInvalidRequest, "decoding request: json: unknown field"},
		{"not json", `scores please`, http.StatusBadRequest, CodeInvalidRequest, "decoding request: "},
		{"empty body", ``, http.StatusBadRequest, CodeInvalidRequest, "decoding request: EOF"},
		{"truncated", `{"instances": [[1, 2`, http.StatusBadRequest, CodeInvalidRequest, "decoding request: "},
		{"instances not an array", `{"instances": "x"}`, http.StatusBadRequest, CodeInvalidRequest, "decoding request: "},
		{"feature not a number", `{"instance": ["1"]}`, http.StatusBadRequest, CodeInvalidRequest, "decoding request: "},
		{"instance scored after instances", `{"instances": [` + string(okRow) + `], "instance": [1]}`, http.StatusBadRequest, CodeInvalidRequest, "instance 1: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+"/v1/models/default/predict", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			e := decodeError(t, buf.Bytes())
			if e.Code != tc.code {
				t.Fatalf("code %q, want %q", e.Code, tc.code)
			}
			if !strings.HasPrefix(e.Message, tc.msg) {
				t.Fatalf("message %q, want prefix %q", e.Message, tc.msg)
			}
		})
	}

	t.Run("get predict", func(t *testing.T) {
		resp, err := http.Get(hs.URL + "/v1/models/default/predict")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", resp.StatusCode)
		}
		if e := decodeError(t, buf.Bytes()); e.Code != CodeMethodNotAllowed {
			t.Fatalf("code %q, want %q", e.Code, CodeMethodNotAllowed)
		}
	})

	t.Run("valid request still accepted", func(t *testing.T) {
		resp, body := postPredict(t, hs.URL, PredictRequest{Instances: [][]float64{ok}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	})

	t.Run("rejections counted", func(t *testing.T) {
		s, _, _ := newTestServer(t)
		h := s.Handler()
		req := httptest.NewRequest(http.MethodPost, "/v1/models/default/predict", bytes.NewReader([]byte(`{}`)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		m, _ := s.SnapshotModel("default")
		if m.Rejected != 1 {
			t.Fatalf("rejected counter = %d, want 1", m.Rejected)
		}
	})
}

func TestScoreBatchAfterCloseErrors(t *testing.T) {
	art := testArtifact(t)
	reg := NewRegistry()
	if err := reg.Load("default", art); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), reg)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.ScoreBatch("default", [][]float64{make([]float64, art.Dim())}); err == nil {
		t.Fatal("ScoreBatch on a closed server did not error")
	}
	s.Close() // idempotent
}

func TestRegistryValidation(t *testing.T) {
	reg := NewRegistry()
	art := testArtifact(t)
	for _, id := range []string{"", "a b", "a/b", "a\nb", "ü"} {
		if err := reg.Load(id, art); err == nil {
			t.Errorf("Load accepted invalid model id %q", id)
		}
	}
	for _, id := range []string{"a", "A-1", "model.v2", "snake_case"} {
		if err := reg.Load(id, art); err != nil {
			t.Errorf("Load rejected valid model id %q: %v", id, err)
		}
	}
	if reg.Len() != 4 {
		t.Fatalf("Len = %d, want 4", reg.Len())
	}
	if !reg.Remove("a") || reg.Remove("a") {
		t.Fatal("Remove is not reporting registration correctly")
	}
}
