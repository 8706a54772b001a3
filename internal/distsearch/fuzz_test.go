package distsearch

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Fuzzers for the worker's decoding boundaries: the job install and score
// routes take bodies from any coordinator on the network, so hostile bytes
// must come back as a documented status with the error envelope — never a
// panic. Seed corpora live under testdata/fuzz/.

// post sends body to the worker route and returns the status and reply.
func post(h http.Handler, route string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// checkEnvelope fails unless reply is the error envelope carrying code.
func checkEnvelope(t *testing.T, status int, reply []byte, code string) {
	t.Helper()
	var env errorResponse
	if err := json.Unmarshal(reply, &env); err != nil || env.Code != code || env.Error == "" {
		t.Fatalf("status %d answered %q, want the %s error envelope", status, reply, code)
	}
}

// reseal re-stamps the fingerprint of a body that decodes as a job, so the
// fuzzer reaches the install path past the integrity check. Bodies that do
// not decode are returned unchanged.
func reseal(body []byte) []byte {
	var job Job
	if json.Unmarshal(body, &job) != nil {
		return body
	}
	// Encode once first: the encoder rewrites invalid UTF-8, and the
	// fingerprint must cover the bytes the worker will decode.
	enc, err := json.Marshal(&job)
	if err != nil || json.Unmarshal(enc, &job) != nil {
		return body
	}
	if job.Fingerprint, err = job.fingerprint(); err != nil {
		return body
	}
	if enc, err = json.Marshal(&job); err != nil {
		return body
	}
	return enc
}

// FuzzJobInstall: /v1/job answers only 200, or 400 with the bad-request
// envelope. An accepted job passes Verify, and installing it again is a
// no-op that keeps the installed evaluator.
func FuzzJobInstall(f *testing.F) {
	d := testData(f)
	for _, spec := range []Spec{{}, {CVSeed: 1, Backend: "nystrom:4"}, {Learner: "svm", Kernel: "linear", Folds: 3}} {
		job, err := NewJob(d, spec)
		if err != nil {
			f.Fatal(err)
		}
		body, err := json.Marshal(job)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, false)
	}
	f.Add([]byte(`{"dataset_csv":"label,a\n1,0\n-1,1\n","schema":{"label":"label"}}`), true)
	f.Fuzz(func(t *testing.T, body []byte, resealed bool) {
		if resealed {
			body = reseal(body)
		}
		w := &WorkerServer{Parallelism: 1}
		h := w.Handler()
		status, reply := post(h, "/v1/job", body)
		switch status {
		case http.StatusOK:
		case http.StatusBadRequest:
			checkEnvelope(t, status, reply, errCodeBadRequest)
			return
		default:
			t.Fatalf("install answered %d: %s", status, reply)
		}
		// The handler decodes the first JSON value of the body; so does
		// this check.
		var job Job
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&job); err != nil {
			t.Fatalf("accepted a body that does not decode as a job: %v", err)
		}
		if err := job.Verify(); err != nil {
			t.Fatalf("accepted a job that fails Verify: %v", err)
		}
		var ack struct{ Fingerprint string }
		if err := json.Unmarshal(reply, &ack); err != nil || ack.Fingerprint != job.Fingerprint {
			t.Fatalf("install acknowledged %q, want fingerprint %s", reply, job.Fingerprint)
		}
		w.mu.Lock()
		held, installed := w.jobs[job.Fingerprint], len(w.order)
		w.mu.Unlock()
		if held == nil || installed != 1 {
			t.Fatalf("accepted job not installed (held %v, %d jobs)", held != nil, installed)
		}
		if status, reply := post(h, "/v1/job", body); status != http.StatusOK {
			t.Fatalf("re-install answered %d: %s", status, reply)
		}
		w.mu.Lock()
		again, reinstalled := w.jobs[job.Fingerprint], len(w.order)
		w.mu.Unlock()
		if again != held || reinstalled != installed {
			t.Fatal("re-installing an installed job was not a no-op")
		}
	})
}

// FuzzScoreRequest: decodeCandidate never panics and accepts a key only
// when the key is canonical (decodeCandidate(k).Key() == k), and
// /v1/score answers only 200, or 400, 404 or 500 with the matching error
// envelope — for the raw body, and for the key scored under an installed
// job.
func FuzzScoreRequest(f *testing.F) {
	d := testData(f)
	job, err := NewJob(d, Spec{CVSeed: 1})
	if err != nil {
		f.Fatal(err)
	}
	w := &WorkerServer{Parallelism: 1}
	if err := w.install(job); err != nil {
		f.Fatal(err)
	}
	h := w.Handler()
	seed := make([]byte, 0, 2*d.D())
	for i := 0; i < d.D(); i++ {
		if i > 0 {
			seed = append(seed, '.')
		}
		seed = append(seed, byte('0'+i%2))
	}
	valid, err := json.Marshal(scoreRequest{Fingerprint: job.Fingerprint, Candidates: []string{string(seed)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed), valid)
	f.Add("0.1.0.2", []byte(`{"fingerprint":"crc64:0000000000000000","candidates":["0.1"]}`))
	f.Add("1.0", []byte(`{"candidates":`))
	f.Fuzz(func(t *testing.T, key string, body []byte) {
		if p, err := decodeCandidate(key); err == nil && p.Key() != key {
			t.Fatalf("decodeCandidate(%q) accepted a key that re-encodes as %q", key, p.Key())
		}
		scored, err := json.Marshal(scoreRequest{Fingerprint: job.Fingerprint, Candidates: []string{key}})
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range [][]byte{body, scored} {
			status, reply := post(h, "/v1/score", req)
			switch status {
			case http.StatusOK:
				var resp scoreResponse
				if err := json.Unmarshal(reply, &resp); err != nil || resp.Fingerprint != job.Fingerprint {
					t.Fatalf("200 reply %q is not a score response for the installed job", reply)
				}
			case http.StatusBadRequest:
				checkEnvelope(t, status, reply, errCodeBadRequest)
			case http.StatusNotFound:
				checkEnvelope(t, status, reply, errCodeUnknownJob)
			case http.StatusInternalServerError:
				checkEnvelope(t, status, reply, errCodeScore)
			default:
				t.Fatalf("score answered %d: %s", status, reply)
			}
		}
	})
}
