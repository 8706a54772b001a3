package distsearch

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// testData builds the small faceted workload the distributed tests score:
// tiny enough that a whole fault matrix stays fast, structured enough
// that the lattice search has real choices to make.
func testData(t testing.TB) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultBiometricConfig()
	cfg.N = 40
	d := dataset.SyntheticBiometric(cfg, stats.NewRNG(7))
	d.Standardize()
	return d
}

// TestJobRoundTrip: the wire form must reproduce the dataset bit-for-bit
// — the foundation of cross-process determinism.
func TestJobRoundTrip(t *testing.T) {
	d := testData(t)
	job, err := NewJob(d, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Verify(); err != nil {
		t.Fatalf("fresh job fails Verify: %v", err)
	}
	got, err := job.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != d.N() || got.D() != d.D() {
		t.Fatalf("round trip shape (%d,%d), want (%d,%d)", got.N(), got.D(), d.N(), d.D())
	}
	for i := range d.X {
		for j := range d.X[i] {
			if got.X[i][j] != d.X[i][j] {
				t.Fatalf("X[%d][%d] = %v, want %v (bit-exact)", i, j, got.X[i][j], d.X[i][j])
			}
		}
	}
	if !reflect.DeepEqual(got.Y, d.Y) {
		t.Fatal("labels diverge after round trip")
	}
	if !reflect.DeepEqual(got.Views, d.Views) {
		t.Fatalf("views diverge after round trip: %v vs %v", got.Views, d.Views)
	}
}

// TestJobVerifyRejectsTampering: any payload change must break the
// fingerprint.
func TestJobVerifyRejectsTampering(t *testing.T) {
	d := testData(t)
	job, err := NewJob(d, Spec{Learner: "ridge"})
	if err != nil {
		t.Fatal(err)
	}
	job.Spec.Learner = "svm"
	if err := job.Verify(); err == nil {
		t.Fatal("Verify accepted a tampered spec")
	}
	job.Spec.Learner = "ridge"
	job.DatasetCSV = strings.Replace(job.DatasetCSV, "0", "1", 1)
	if err := job.Verify(); err == nil {
		t.Fatal("Verify accepted a tampered dataset")
	}

	// A job from a coordinator speaking an older spec — one still carrying
	// a removed field — is refused at install with a 400 envelope naming
	// the field, not as an opaque fingerprint mismatch.
	job, err = NewJob(d, Spec{Backend: "nystrom:64"})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, removed := range []struct{ field, value string }{
		{"gram", `"nystrom:64"`},
		{"exact_gram", "true"},
	} {
		t.Run("removed-"+removed.field, func(t *testing.T) {
			old := bytes.Replace(body, []byte(`"spec":{`), []byte(`"spec":{"`+removed.field+`":`+removed.value+`,`), 1)
			var w WorkerServer
			rec := httptest.NewRecorder()
			w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/job", bytes.NewReader(old)))
			var env errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("install reply is not the error envelope: %v (%s)", err, rec.Body)
			}
			if rec.Code != http.StatusBadRequest || env.Code != errCodeBadRequest || !strings.Contains(env.Error, `"`+removed.field+`"`) {
				t.Fatalf("job with the removed spec field %q answered %d %+v, want 400 %s naming it", removed.field, rec.Code, env, errCodeBadRequest)
			}
		})
	}
}

// TestSpecConfigRejectsUnknown: bad spellings fail loudly, never default
// silently (a worker running a different config than the coordinator
// would corrupt the fit undetectably if specs degraded quietly).
func TestSpecConfigRejectsUnknown(t *testing.T) {
	for _, s := range []Spec{
		{Learner: "forest"},
		{Kernel: "cubic"},
		{Combiner: "max"},
		{Objective: "auc"},
		{Backend: "sketch"},
		{Backend: "auto"}, // must be resolved coordinator-side first
		{Backend: "nystrom:0"},
		{Backend: "f32:8"},
		{Backend: "rff:2000000000"},
		{Backend: "rff:4097"},
	} {
		if _, err := s.Config(); err == nil {
			t.Fatalf("Spec %+v produced a config, want error", s)
		}
	}
	if _, err := (Spec{}).Config(); err != nil {
		t.Fatalf("zero Spec must select defaults, got %v", err)
	}
}

// TestSpecBackendSpellings: the Backend field expands to the engine
// backend the coordinator resolved.
func TestSpecBackendSpellings(t *testing.T) {
	cfg, err := Spec{Backend: "f32"}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Backend != engine.Float32 {
		t.Fatalf("Backend \"f32\" expanded to %v", cfg.Backend)
	}
	cfg, err = Spec{Backend: "nystrom:64"}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Backend != engine.Nystrom(64) {
		t.Fatalf("Backend \"nystrom:64\" expanded to %v", cfg.Backend)
	}
}

// TestJobInstallRejectsUncappedRFFRank: a job naming an RFF rank over
// maxRFFRank is refused at install with the bad-request envelope, before
// any evaluator is built, and installs nothing; the cap itself installs.
func TestJobInstallRejectsUncappedRFFRank(t *testing.T) {
	d := testData(t)
	for _, tc := range []struct {
		backend string
		status  int
	}{
		{"rff:2000000000", http.StatusBadRequest},
		{"rff:" + strconv.Itoa(maxRFFRank+1), http.StatusBadRequest},
		{"rff:" + strconv.Itoa(maxRFFRank), http.StatusOK},
	} {
		job, err := NewJob(d, Spec{Backend: tc.backend})
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(job)
		if err != nil {
			t.Fatal(err)
		}
		w := &WorkerServer{Parallelism: 1}
		status, reply := post(w.Handler(), "/v1/job", body)
		if status != tc.status {
			t.Fatalf("%s: install answered %d %s, want %d", tc.backend, status, reply, tc.status)
		}
		if status == http.StatusOK {
			continue
		}
		checkEnvelope(t, status, reply, errCodeBadRequest)
		if !strings.Contains(string(reply), "RFF rank") {
			t.Fatalf("%s: refusal %s does not name the RFF rank", tc.backend, reply)
		}
		if len(w.jobs) != 0 {
			t.Fatalf("%s: refused job left %d jobs installed", tc.backend, len(w.jobs))
		}
	}
}

// TestDecodeCandidate: the wire key round trip and its rejections.
func TestDecodeCandidate(t *testing.T) {
	p, err := decodeCandidate("0.1.0.2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Key() != "0.1.0.2" {
		t.Fatalf("round trip gave %q", p.Key())
	}
	for _, bad := range []string{"", "x.y", "0.-1", "0.2.0", "1.0"} {
		if _, err := decodeCandidate(bad); err == nil {
			t.Fatalf("decodeCandidate(%q) accepted, want error", bad)
		}
	}
}

// TestShardBatch: contiguous cover, no overlap, honors ShardSize.
func TestShardBatch(t *testing.T) {
	c := &Coordinator{opts: Options{Workers: []string{"a", "b"}, ShardSize: 3}}
	shards := c.shardBatch(8)
	want := []shardRange{{0, 3}, {3, 6}, {6, 8}}
	if !reflect.DeepEqual(shards, want) {
		t.Fatalf("shardBatch(8) = %v, want %v", shards, want)
	}
	c.opts.ShardSize = 0 // auto: about two shards per worker
	shards = c.shardBatch(8)
	if got := len(shards); got != 4 {
		t.Fatalf("auto sharding gave %d shards for 8 candidates × 2 workers, want 4", got)
	}
	lo := 0
	for _, s := range shards {
		if s.lo != lo || s.hi <= s.lo {
			t.Fatalf("shards not contiguous: %v", shards)
		}
		lo = s.hi
	}
	if lo != 8 {
		t.Fatalf("shards cover [0,%d), want [0,8)", lo)
	}
}
