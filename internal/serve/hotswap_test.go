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
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

// saveAtomic writes art next to path and renames it into place, so the
// watcher never observes a half-written artifact.
func saveAtomic(t *testing.T, art *model.Artifact, path string) {
	t.Helper()
	tmp := path + ".tmp"
	if err := art.SaveFile(tmp); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

func fingerprintOf(t *testing.T, art *model.Artifact) string {
	t.Helper()
	fp, err := art.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestHotSwapAtomicAndLossless is the acceptance test of the hot-swap
// contract: fit model A, serve it from a watched directory, overwrite the
// artifact with model B while clients stream predictions, and require
// that (1) every admitted request is answered 2xx — nothing dropped in the
// swap window, (2) every score is bit-identical to either A's or B's
// offline score — no mixed-generation answers, (3) each sequential client
// sees a single monotonic A→B switchover, and (4) the model's published
// fingerprint is B's afterwards.
func TestHotSwapAtomicAndLossless(t *testing.T) {
	artA := testArtifactSeed(t, 11)
	artB := testArtifactSeed(t, 23)
	q := testQueries(artA.Dim(), 1)
	wantA := offlineScores(t, artA, q)[0]
	wantB := offlineScores(t, artB, q)[0]
	if math.Float64bits(wantA) == math.Float64bits(wantB) {
		t.Fatal("A and B score identically; the switchover would be unobservable")
	}
	fpB := fingerprintOf(t, artB)

	dir := t.TempDir()
	path := filepath.Join(dir, "m.iotml")
	saveAtomic(t, artA, path)

	s, err := New(context.Background(), NewRegistry(),
		WithModelDir(dir),
		WithReloadInterval(15*time.Millisecond),
		WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	raw, err := json.Marshal(PredictRequest{Instances: q})
	if err != nil {
		t.Fatal(err)
	}

	// Several sequential clients stream predictions across the swap. Each
	// client checks its own monotonicity; the shared checks are "always 2xx"
	// and "always exactly A's or B's score".
	const clients = 4
	deadline := time.Now().Add(10 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, clients*4)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seenB := false
			for time.Now().Before(deadline) {
				resp, err := http.Post(hs.URL+"/v1/models/m/predict", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err
					return
				}
				var pr PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- &monotonicityError{msg: "admitted request answered non-2xx", status: resp.StatusCode}
					return
				}
				if err != nil {
					errs <- err
					return
				}
				got := math.Float64bits(pr.Scores[0])
				switch got {
				case math.Float64bits(wantA):
					if seenB {
						errs <- &monotonicityError{msg: "observed A's score after B's: switchover is not monotonic"}
						return
					}
				case math.Float64bits(wantB):
					seenB = true
				default:
					errs <- &monotonicityError{msg: "score belongs to neither generation"}
					return
				}
				if seenB {
					return // this client observed the switchover; done
				}
			}
			errs <- &monotonicityError{msg: "client never observed model B"}
		}()
	}

	time.Sleep(60 * time.Millisecond) // let clients stream against A first
	saveAtomic(t, artB, path)

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The published metadata reflects B.
	resp, err := http.Get(hs.URL + "/v1/models/m")
	if err != nil {
		t.Fatal(err)
	}
	var mi modelResponse
	err = json.NewDecoder(resp.Body).Decode(&mi)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mi.Fingerprint != fpB {
		t.Fatalf("post-swap fingerprint %q, want B's %q", mi.Fingerprint, fpB)
	}
	if mi.Swaps < 1 {
		t.Fatalf("swap counter %d, want >= 1", mi.Swaps)
	}
	if m, _ := s.SnapshotModel("m"); m.Shed != 0 {
		t.Fatalf("%d requests shed during the swap, want 0", m.Shed)
	}
}

type monotonicityError struct {
	msg    string
	status int
}

func (e *monotonicityError) Error() string {
	if e.status != 0 {
		return e.msg + ": status " + http.StatusText(e.status)
	}
	return e.msg
}

// TestHotSwapViaRegistryLoad pins the programmatic swap path: Load on a
// live id flips the served scores and bumps the swap counter without a
// server restart.
func TestHotSwapViaRegistryLoad(t *testing.T) {
	artA := testArtifactSeed(t, 11)
	artB := testArtifactSeed(t, 23)
	reg := NewRegistry()
	if err := reg.Load("m", artA); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	q := testQueries(artA.Dim(), 3)
	wantA := offlineScores(t, artA, q)
	wantB := offlineScores(t, artB, q)

	got, err := s.ScoreBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got[0]) != math.Float64bits(wantA[0]) {
		t.Fatalf("pre-swap score %v, want A's %v", got[0], wantA[0])
	}

	if err := reg.Load("m", artB); err != nil {
		t.Fatal(err)
	}
	got, err = s.ScoreBatch("m", q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantB {
		if math.Float64bits(got[i]) != math.Float64bits(wantB[i]) {
			t.Fatalf("post-swap score %d = %v, want B's %v", i, got[i], wantB[i])
		}
	}
	info, ok := reg.Info("m")
	if !ok || info.Swaps != 1 {
		t.Fatalf("Info = %+v, want Swaps 1", info)
	}
}

// TestWatcherSkipsBitIdenticalRewrite: New bootstraps every *.iotml in the
// model directory under its file-name id (other files are ignored), and
// rewriting the same artifact (new mtime, same content) must not trigger a
// spurious swap.
func TestWatcherSkipsBitIdenticalRewrite(t *testing.T) {
	art := testArtifactSeed(t, 11)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.iotml")
	saveAtomic(t, art, path)
	saveAtomic(t, testArtifactSeed(t, 23), filepath.Join(dir, "beta.iotml"))
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(context.Background(), NewRegistry(),
		WithModelDir(dir), WithReloadInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if ids := s.Registry().IDs(); !reflect.DeepEqual(ids, []string{"beta", "m"}) {
		t.Fatalf("bootstrapped ids = %v, want [beta m]", ids)
	}

	saveAtomic(t, art, path) // same bytes, fresh mtime
	time.Sleep(80 * time.Millisecond)
	if m, _ := s.SnapshotModel("m"); m.Swaps != 0 {
		t.Fatalf("bit-identical rewrite caused %d swaps, want 0", m.Swaps)
	}
}

// TestWatcherRetiresVanishedModel: deleting the artifact retires the model.
func TestWatcherRetiresVanishedModel(t *testing.T) {
	art := testArtifactSeed(t, 11)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.iotml")
	saveAtomic(t, art, path)

	s, err := New(context.Background(), NewRegistry(),
		WithModelDir(dir), WithReloadInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Registry().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("model not retired after its artifact vanished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	q := testQueries(art.Dim(), 1)
	if _, err := s.ScoreBatch("m", q); err == nil {
		t.Fatal("retired model still answering")
	}
}

// TestWatcherSurvivesBadArtifact: a corrupt write is skipped and counted —
// the previous generation keeps serving — and a subsequent good write
// swaps in normally.
func TestWatcherSurvivesBadArtifact(t *testing.T) {
	artA := testArtifactSeed(t, 11)
	artB := testArtifactSeed(t, 23)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.iotml")
	saveAtomic(t, artA, path)

	s, err := New(context.Background(), NewRegistry(),
		WithModelDir(dir), WithReloadInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	q := testQueries(artA.Dim(), 1)
	wantA := offlineScores(t, artA, q)[0]
	wantB := offlineScores(t, artB, q)[0]

	// Corrupt the artifact in place.
	if err := os.WriteFile(path, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.reloadErrors.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("corrupt artifact never surfaced as a reload error")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := s.ScoreBatch("m", q)
	if err != nil {
		t.Fatalf("old generation stopped serving after a corrupt write: %v", err)
	}
	if math.Float64bits(got[0]) != math.Float64bits(wantA) {
		t.Fatalf("score %v after corrupt write, want A's %v", got[0], wantA)
	}
	if s.lastReloadError() == "" {
		t.Fatal("last reload error not recorded")
	}

	// A good artifact recovers.
	saveAtomic(t, artB, path)
	for {
		got, err := s.ScoreBatch("m", q)
		if err == nil && math.Float64bits(got[0]) == math.Float64bits(wantB) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("good artifact never swapped in after a corrupt one")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatcherRetriesTransientReadError: a failed poll triggers quick
// jittered re-scans inside the same interval (counted in reload_retries
// and exposed through /healthz), so a transient read error heals without
// waiting out the full cadence — and a good artifact still swaps in.
func TestWatcherRetriesTransientReadError(t *testing.T) {
	artA := testArtifactSeed(t, 11)
	artB := testArtifactSeed(t, 23)
	dir := t.TempDir()
	path := filepath.Join(dir, "m.iotml")
	saveAtomic(t, artA, path)

	s, err := New(context.Background(), NewRegistry(),
		WithModelDir(dir), WithReloadInterval(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Corrupt the artifact: every poll now fails, and each failure buys
	// watchScanRetries quick re-scans.
	if err := os.WriteFile(path, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.reloadRetries.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("failed poll never retried")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The retry counter is part of the health surface.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	var hz struct {
		ReloadRetries int64 `json:"reload_retries"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.ReloadRetries == 0 {
		t.Fatal("healthz reload_retries still zero after retries happened")
	}

	// Healing the artifact lets a retry (or the next poll) swap it in.
	saveAtomic(t, artB, path)
	q := testQueries(artB.Dim(), 1)
	wantB := offlineScores(t, artB, q)[0]
	for {
		got, err := s.ScoreBatch("m", q)
		if err == nil && math.Float64bits(got[0]) == math.Float64bits(wantB) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healed artifact never swapped in")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
