// Serving: the train-once/serve-forever lifecycle at fleet scale — fit two
// partition-driven MKL models, persist them as versioned artifacts
// (internal/model), serve both from one multi-model server with per-model
// routing (internal/serve), then refresh one artifact on disk and watch
// the server hot-swap it atomically with zero downtime.
//
// The same flow on the command line:
//
//	iotml fit -o models/face.iotml -workload biometric -seed 1
//	iotml fit -o models/gait.iotml -workload biometric -seed 2
//	iotml serve -models models/ -addr :8080 &
//	curl -s localhost:8080/v1/models
//	curl -s -X POST localhost:8080/v1/models/gait/predict -d '{"instances": [[...]]}'
//	iotml fit -o models/face.iotml -seed 3   # watched dir: hot-swaps live
//	curl -s localhost:8080/v1/metrics
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	iotml "repro"
)

// fitArtifact fits one model on the faceted biometric workload and returns
// its deployable artifact.
func fitArtifact(ctx context.Context, seed int64, n int) (*iotml.Artifact, error) {
	cfg := iotml.DefaultBiometricConfig()
	cfg.N = n
	train := iotml.SyntheticBiometric(cfg, iotml.NewRNG(seed))
	train.Standardize()
	res, err := iotml.Fit(ctx, train, iotml.WithFolds(4), iotml.WithCVSeed(1))
	if err != nil {
		return nil, err
	}
	fmt.Printf("fitted: seed %d -> partition %s (cv score %.3f)\n", seed, res.Best, res.Score)
	return res.Artifact()
}

// saveAtomic writes the artifact next to path and renames it into place,
// so the server's directory watcher never sees a half-written file.
func saveAtomic(art *iotml.Artifact, path string) error {
	tmp := path + ".tmp"
	if err := art.SaveFile(tmp); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func main() {
	ctx := context.Background()
	n := 120
	if os.Getenv("IOTML_EXAMPLE_TINY") != "" {
		n = 40 // smoke-test workload (see examples_smoke_test.go)
	}

	// 1. Offline: fit a two-model fleet — different seeds stand in for the
	// per-sensor models a real deployment would train.
	dir, err := os.MkdirTemp("", "serving-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	for _, m := range []struct {
		id   string
		seed int64
	}{{"face", 1}, {"gait", 2}} {
		art, err := fitArtifact(ctx, m.seed, n)
		if err != nil {
			log.Fatal(err)
		}
		if err := saveAtomic(art, filepath.Join(dir, m.id+".iotml")); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("saved:  2 artifacts under %s\n", dir)

	// 2. Online: serve the whole directory. WithModelDir loads every
	// *.iotml (model id = file name) and keeps polling it, so an artifact
	// rewritten on disk is hot-swapped in atomically while the previous
	// model drains. httptest stands in for a real listener so the example
	// is self-contained; `iotml serve -models` binds a real port.
	reg := iotml.NewServeRegistry()
	srv, err := iotml.Serve(ctx, reg,
		iotml.WithModelDir(dir),
		iotml.WithReloadInterval(100*time.Millisecond),
		iotml.WithWorkers(2),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	fmt.Printf("serving: %s (models %v)\n", hs.URL, reg.IDs())

	// 3. Route: each model answers under /v1/models/{id}/predict.
	query := queryRow(n)
	for _, id := range reg.IDs() {
		pr := mustPredict(hs.URL+"/v1/models/"+id+"/predict", query)
		fmt.Printf("predict: model %-4s -> score %+.4f label %+d\n", id, pr.Scores[0], pr.Labels[0])
	}

	// 4. Hot-swap: refit the face model and overwrite its artifact. The
	// watcher fingerprints the new file and swaps it in atomically — the
	// fingerprint flips, traffic keeps flowing, nothing is dropped.
	before := fingerprint(hs.URL, "face")
	refreshed, err := fitArtifact(ctx, 3, n)
	if err != nil {
		log.Fatal(err)
	}
	if err := saveAtomic(refreshed, filepath.Join(dir, "face.iotml")); err != nil {
		log.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for fingerprint(hs.URL, "face") == before {
		if time.Now().After(deadline) {
			log.Fatal("hot-swap did not land")
		}
		time.Sleep(20 * time.Millisecond)
	}
	after := mustPredict(hs.URL+"/v1/models/face/predict", query)
	fmt.Printf("swap:    face fingerprint %s -> %s (served score now %+.4f)\n",
		before, fingerprint(hs.URL, "face"), after.Scores[0])

	// 5. Observe: per-model counters in the Prometheus text exposition.
	resp, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "iotml_requests_total") || strings.HasPrefix(line, "iotml_swaps_total") {
			fmt.Printf("metrics: %s\n", line)
		}
	}
	tot := srv.Totals()
	fmt.Printf("totals:  %d requests, %d instances in %d batches, %d swaps\n",
		tot.Requests, tot.Instances, tot.Batches, tot.Swaps)
}

// queryRow builds one standardized query instance the way the workload's
// clients would.
func queryRow(n int) [][]float64 {
	cfg := iotml.DefaultBiometricConfig()
	cfg.N = n
	d := iotml.SyntheticBiometric(cfg, iotml.NewRNG(7))
	d.Standardize()
	return d.X[:1]
}

func mustPredict(url string, instances [][]float64) iotml.PredictResponse {
	raw, err := json.Marshal(iotml.PredictRequest{Instances: instances})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		log.Fatalf("%s: status %d: %s", url, resp.StatusCode, buf.String())
	}
	var pr iotml.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		log.Fatal(err)
	}
	return pr
}

func fingerprint(base, id string) string {
	resp, err := http.Get(base + "/v1/models/" + id)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var mi struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&mi); err != nil {
		log.Fatal(err)
	}
	return mi.Fingerprint
}
