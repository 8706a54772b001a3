package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
)

// predictErrorCodes maps each non-200 status the predict route documents
// to the envelope codes that may carry it. 500 (internal) is absent on
// purpose: no request body may reach it.
var predictErrorCodes = map[int][]string{
	http.StatusBadRequest:         {CodeInvalidRequest},
	http.StatusNotFound:           {CodeModelNotFound},
	http.StatusMethodNotAllowed:   {CodeMethodNotAllowed},
	http.StatusTooManyRequests:    {CodeQueueFull},
	http.StatusServiceUnavailable: {CodeOverloaded, CodeShuttingDown},
}

// FuzzPredictBody drives /v1/models/{id}/predict with arbitrary bodies,
// seeded with the serve-smoke requests. The route must not panic; every
// answer is a 200 or a documented status with the JSON error envelope; a
// body is refused with 400 exactly when DecodePredictRequest refuses it or
// its scores are not finite; and a 200 carries one score and one label per
// instance, the scores bit-identical to Predictor.Scores.
func FuzzPredictBody(f *testing.F) {
	art := biometricArtifact(f, 11, 12) // 18 features, the serve-smoke request width
	reg := NewRegistry()
	if err := reg.Load("default", art); err != nil {
		f.Fatal(err)
	}
	s, err := New(context.Background(), reg, WithWorkers(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	pred, err := model.NewPredictor(art)
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"request.json", "request-single.json"} {
		body, err := os.ReadFile(filepath.Join("..", "..", "testdata", "serve-smoke", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"instances": [[1, 2]]}`)) // the smoke's wrong-dimension request
	// Finite features whose kernel arithmetic overflows to a NaN score.
	f.Add([]byte(`{"instance": [` + strings.Repeat("1.7e308, ", 17) + `1.7e308]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/models/default/predict", bytes.NewReader(body)))
		reply := rec.Body.Bytes()
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("status %d answered Content-Type %q", rec.Code, ct)
		}
		// The reference: a body is invalid when the decoder refuses it or
		// when its scores are not finite.
		var want []float64
		rows, err := DecodePredictRequest(bytes.NewReader(body), art.Dim())
		if err == nil {
			if want, err = pred.Scores(rows); err != nil {
				t.Fatal(err)
			}
		}
		invalid := err != nil || slices.ContainsFunc(want, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) })
		if rec.Code != http.StatusOK {
			var env errorEnvelope
			if err := json.Unmarshal(reply, &env); err != nil || env.Error.Message == "" ||
				!slices.Contains(predictErrorCodes[rec.Code], env.Error.Code) {
				t.Fatalf("status %d answered %q, want a documented status with the error envelope", rec.Code, reply)
			}
			if rec.Code == http.StatusBadRequest && !invalid {
				t.Fatalf("400 for a valid body: %q", reply)
			}
			return
		}
		if invalid {
			t.Fatalf("200 for an invalid body: %q", reply)
		}
		var resp PredictResponse
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatalf("200 answered %q: %v", reply, err)
		}
		if len(resp.Scores) != len(rows) || len(resp.Labels) != len(rows) {
			t.Fatalf("%d instances answered with %d scores and %d labels", len(rows), len(resp.Scores), len(resp.Labels))
		}
		for i := range want {
			if math.Float64bits(resp.Scores[i]) != math.Float64bits(want[i]) {
				t.Fatalf("score %d = %v, Predictor.Scores %v", i, resp.Scores[i], want[i])
			}
		}
	})
}
