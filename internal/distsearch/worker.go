// The worker side of the distributed search: a small HTTP server that
// accepts job installs and scores candidate shards with the existing
// evaluation machinery (mkl.ScoreShard: the evaluator's cache front over
// an in-process pool of scratch evaluators). One
// evaluator lives per installed job, so its score and Gram-block caches
// persist across shard requests — a greedy climb re-dispatching an
// already-seen candidate to the same worker is a cache hit, not a
// recomputation.
package distsearch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/mkl"
	"repro/internal/partition"
)

// WorkerServer serves the worker routes. The zero value is ready to use;
// register it on a mux via Handler.
type WorkerServer struct {
	// Parallelism overrides the in-process worker count candidates are
	// scored with (0 = all cores). Scores are identical at every setting.
	Parallelism int
	// MaxJobs bounds how many installed jobs are retained (0 = 4); the
	// oldest job is evicted first. A coordinator whose job was evicted
	// gets errCodeUnknownJob and re-installs.
	MaxJobs int

	mu    sync.Mutex
	jobs  map[string]*workerJob
	order []string // install order, for eviction
}

// workerJob is one installed job: its evaluator plus a lock serializing
// shard scoring (the evaluator's caches are not concurrency-safe; the
// coordinator sends one shard at a time per worker anyway).
type workerJob struct {
	mu   sync.Mutex
	eval *mkl.Evaluator
	n    int // ground-set size, to validate candidate keys early
}

// Handler returns the worker's HTTP handler.
func (w *WorkerServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", w.handleHealthz)
	mux.HandleFunc("/v1/job", w.handleJob)
	mux.HandleFunc("/v1/score", w.handleScore)
	return mux
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v)
}

func writeError(rw http.ResponseWriter, status int, code, msg string) {
	writeJSON(rw, status, errorResponse{Code: code, Error: msg})
}

func (w *WorkerServer) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	n := len(w.jobs)
	w.mu.Unlock()
	writeJSON(rw, http.StatusOK, map[string]any{"status": "ok", "jobs": n})
}

func (w *WorkerServer) handleJob(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, errCodeBadRequest, "POST only")
		return
	}
	// Unknown fields fail the install by name: a job from a coordinator
	// speaking a different spec version (say, one still carrying a removed
	// field) is rejected with a message naming the field, rather than as
	// an opaque fingerprint mismatch once the spec is re-encoded.
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<30))
	dec.DisallowUnknownFields()
	var job Job
	if err := dec.Decode(&job); err != nil {
		writeError(rw, http.StatusBadRequest, errCodeBadRequest, fmt.Sprintf("decoding job: %v", err))
		return
	}
	if err := w.install(&job); err != nil {
		writeError(rw, http.StatusBadRequest, errCodeBadRequest, err.Error())
		return
	}
	writeJSON(rw, http.StatusOK, map[string]string{"fingerprint": job.Fingerprint})
}

// install verifies and registers a job, building its evaluator. Installing
// a fingerprint the worker already holds is a no-op (idempotent retries).
func (w *WorkerServer) install(job *Job) error {
	if err := job.Verify(); err != nil {
		return err
	}
	w.mu.Lock()
	_, have := w.jobs[job.Fingerprint]
	w.mu.Unlock()
	if have {
		return nil
	}
	d, err := job.Dataset()
	if err != nil {
		return err
	}
	cfg, err := job.Spec.Config()
	if err != nil {
		return err
	}
	cfg.Parallelism = w.Parallelism
	eval, err := mkl.NewEvaluator(d, cfg)
	if err != nil {
		return fmt.Errorf("distsearch: building evaluator: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.jobs == nil {
		w.jobs = map[string]*workerJob{}
	}
	if _, have := w.jobs[job.Fingerprint]; have {
		return nil
	}
	maxJobs := w.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 4
	}
	for len(w.order) >= maxJobs {
		delete(w.jobs, w.order[0])
		w.order = w.order[1:]
	}
	w.jobs[job.Fingerprint] = &workerJob{eval: eval, n: d.D()}
	w.order = append(w.order, job.Fingerprint)
	return nil
}

// score evaluates one shard under an installed job — the transport-free
// core of the score route (LoopbackTransport calls it directly).
func (w *WorkerServer) score(fingerprint string, keys []string) (scoreResponse, error) {
	w.mu.Lock()
	job := w.jobs[fingerprint]
	w.mu.Unlock()
	if job == nil {
		return scoreResponse{}, errUnknownJob
	}
	cands := make([]partition.Partition, len(keys))
	for i, key := range keys {
		p, err := decodeCandidate(key)
		if err != nil {
			return scoreResponse{}, err
		}
		if p.N() != job.n {
			return scoreResponse{}, fmt.Errorf("distsearch: candidate %q partitions %d elements, job has %d features", key, p.N(), job.n)
		}
		cands[i] = p
	}
	job.mu.Lock()
	scores, err := mkl.ScoreShard(job.eval, cands)
	job.mu.Unlock()
	if err != nil {
		return scoreResponse{}, fmt.Errorf("distsearch: scoring shard: %w", err)
	}
	return scoreResponse{Fingerprint: fingerprint, Scores: scores}, nil
}

func (w *WorkerServer) handleScore(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, errCodeBadRequest, "POST only")
		return
	}
	var req scoreRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<26)).Decode(&req); err != nil {
		writeError(rw, http.StatusBadRequest, errCodeBadRequest, fmt.Sprintf("decoding score request: %v", err))
		return
	}
	resp, err := w.score(req.Fingerprint, req.Candidates)
	switch {
	case errors.Is(err, errUnknownJob):
		writeError(rw, http.StatusNotFound, errCodeUnknownJob, fmt.Sprintf("no installed job %s", req.Fingerprint))
	case err != nil:
		writeError(rw, http.StatusInternalServerError, errCodeScore, err.Error())
	default:
		writeJSON(rw, http.StatusOK, resp)
	}
}

// Serve runs the worker on addr until ctx is cancelled, then shuts down
// gracefully (in-flight shard requests finish). ready, when non-nil,
// receives the bound address once listening — the "host:port" a
// coordinator dials, useful with a ":0" addr.
func Serve(ctx context.Context, addr string, w *WorkerServer, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("distsearch: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	srv := &http.Server{Handler: w.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			srv.Close()
		}
		<-errc
		return nil
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}
