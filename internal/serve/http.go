// The HTTP surface: the versioned /v1 routes and the structured error
// envelope. Handlers for health, model metadata, and metrics read
// copy-on-read snapshots and never enqueue behind predictions — the
// admission-priority half of the load-shedding design.

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"repro/internal/model"
)

// Stable error codes of the JSON error envelope
// {"error":{"code":...,"message":...}}. Clients branch on the code; the
// message is human-readable and may change.
const (
	CodeInvalidRequest   = "invalid_request"    // 400
	CodeModelNotFound    = "model_not_found"    // 404
	CodeMethodNotAllowed = "method_not_allowed" // 405
	CodeQueueFull        = "queue_full"         // 429 (per-model backpressure; Retry-After is set)
	CodeOverloaded       = "overloaded"         // 503 (global saturation; Retry-After is set)
	CodeShuttingDown     = "shutting_down"      // 503 (graceful drain in progress)
	CodeInternal         = "internal"           // 500
)

// retryAfterSeconds is the backoff hint attached to shed responses.
const retryAfterSeconds = "1"

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the only failure mode left
}

// errorEnvelope is the structured error body of every non-2xx response.
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	if status == http.StatusTooManyRequests || code == CodeOverloaded {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, errorEnvelope{Error: errorDetail{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// Handler returns the HTTP API: the /v1 routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/models/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.handleModelInfo(w, r, r.PathValue("id"))
	})
	mux.HandleFunc("/v1/models/{id}/predict", func(w http.ResponseWriter, r *http.Request) {
		s.handlePredict(w, r, r.PathValue("id"))
	})
	mux.HandleFunc("/v1/metrics", s.handleMetrics)

	// Everything else gets the envelope, not net/http's plain-text 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeInvalidRequest, "no route %s %s", r.Method, r.URL.Path)
	})
	return mux
}

type healthzResponse struct {
	Status           string        `json:"status"`
	UptimeMS         int64         `json:"uptime_ms"`
	Workers          int           `json:"workers"`
	MaxBatch         int           `json:"max_batch"`
	Pending          int64         `json:"pending"`
	GlobalQueueDepth int           `json:"global_queue_depth"`
	ReloadErrors     int64         `json:"reload_errors"`
	ReloadRetries    int64         `json:"reload_retries"`
	LastReloadError  string        `json:"last_reload_error,omitempty"`
	Models           []modelHealth `json:"models"`
}

type modelHealth struct {
	ID          string  `json:"id"`
	Fingerprint string  `json:"fingerprint"`
	Metrics     Metrics `json:"metrics"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "healthz is GET-only")
		return
	}
	ids := s.reg.IDs()
	models := make([]modelHealth, 0, len(ids))
	for _, id := range ids {
		fp, _ := s.reg.Fingerprint(id)
		m, _ := s.SnapshotModel(id)
		models = append(models, modelHealth{ID: id, Fingerprint: fp, Metrics: m})
	}
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:           "ok",
		UptimeMS:         time.Since(s.start).Milliseconds(),
		Workers:          s.cfg.Workers,
		MaxBatch:         s.cfg.MaxBatch,
		Pending:          s.pending.Load(),
		GlobalQueueDepth: s.cfg.GlobalQueueDepth,
		ReloadErrors:     s.reloadErrors.Load(),
		ReloadRetries:    s.reloadRetries.Load(),
		LastReloadError:  s.lastReloadError(),
		Models:           models,
	})
}

type modelsResponse struct {
	Models []ModelInfo `json:"models"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "models is GET-only")
		return
	}
	ids := s.reg.IDs()
	infos := make([]ModelInfo, 0, len(ids))
	for _, id := range ids {
		if info, ok := s.reg.Info(id); ok {
			infos = append(infos, info)
		}
	}
	writeJSON(w, http.StatusOK, modelsResponse{Models: infos})
}

// modelResponse is one model's self-description: the artifact's fields
// plus the registry's id/fingerprint/loaded_at view.
type modelResponse struct {
	ID            string   `json:"id"`
	Fingerprint   string   `json:"fingerprint"`
	LoadedAt      string   `json:"loaded_at"`
	Source        string   `json:"source,omitempty"`
	Swaps         int64    `json:"swaps"`
	FormatVersion int      `json:"format_version"`
	LearnerKind   string   `json:"learner_kind"`
	Learner       string   `json:"learner,omitempty"`
	Partition     string   `json:"partition"`
	Kernel        string   `json:"kernel"`
	Dim           int      `json:"dim"`
	NumTrain      int      `json:"n_train"`
	FeatureNames  []string `json:"feature_names,omitempty"`
}

func (s *Server) handleModelInfo(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "model is GET-only")
		return
	}
	e, st := s.liveState(id)
	if st == nil {
		s.writeModelNotFound(w, id)
		return
	}
	k, err := st.art.KernelSpec.FromSpec()
	if err != nil { // validated at load; unreachable in practice
		writeError(w, http.StatusInternalServerError, CodeInternal, "kernel spec: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, modelResponse{
		ID:            e.id,
		Fingerprint:   st.fp,
		LoadedAt:      st.loadedAt.UTC().Format(time.RFC3339Nano),
		Source:        st.source,
		Swaps:         e.metrics.Snapshot().Swaps,
		FormatVersion: model.FormatVersion,
		LearnerKind:   st.art.LearnerKind,
		Learner:       st.art.Learner,
		Partition:     st.art.Partition.String(),
		Kernel:        k.String(),
		Dim:           st.art.Dim(),
		NumTrain:      st.art.NumTrain(),
		FeatureNames:  st.art.FeatureNames,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "metrics is GET-only")
		return
	}
	var b strings.Builder
	renderPrometheus(&b, time.Since(s.start), s.pending.Load(), s.reloadErrors.Load(), s.reloadRetries.Load(), s.reg.Snapshot())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// PredictRequest is the predict body. Instance is a single-row
// convenience; when both are present Instance is scored after Instances.
type PredictRequest struct {
	Instances [][]float64 `json:"instances"`
	Instance  []float64   `json:"instance,omitempty"`
}

// PredictResponse answers predict: one decision score and one ±1 label
// per instance, in request order.
type PredictResponse struct {
	Scores []float64 `json:"scores"`
	Labels []int     `json:"labels"`
}

// DecodePredictRequest reads one predict body from r and returns its rows:
// Instances, then Instance. Unknown fields and an empty request are
// errors, and every row is checked for dimensionality dim and finiteness
// before anything reaches a scoring queue. The /predict route and
// `iotml predict` both decode through it, so they accept the same bodies.
func DecodePredictRequest(r io.Reader, dim int) ([][]float64, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req PredictRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	rows := req.Instances
	if req.Instance != nil {
		rows = append(rows, req.Instance)
	}
	if len(rows) == 0 {
		return nil, errors.New("request has no instances")
	}
	for i, row := range rows {
		if err := model.ValidateRow(dim, row); err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
	}
	return rows, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "predict is POST-only")
		return
	}
	e, st := s.liveState(id)
	if st == nil {
		s.writeModelNotFound(w, id)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	rows, err := DecodePredictRequest(r.Body, st.art.Dim())
	if err != nil {
		e.metrics.countRejected()
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "%v", err)
		return
	}
	scores, err := s.ScoreBatch(id, rows)
	if err != nil {
		s.writeScoreError(w, e, err)
		return
	}
	// Finite features near the float64 limit can overflow the kernel
	// arithmetic into a NaN or infinite score, which JSON cannot carry.
	for i, v := range scores {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			e.metrics.countRejected()
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, "instance %d: score is %v; feature values overflow the kernel arithmetic", i, v)
			return
		}
	}
	writeJSON(w, http.StatusOK, PredictResponse{Scores: scores, Labels: model.Labels(scores)})
}

// writeScoreError maps ScoreBatch's sentinel errors to status + code.
func (s *Server) writeScoreError(w http.ResponseWriter, e *entry, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, CodeQueueFull, "%v", err)
	case errors.Is(err, ErrOverloaded):
		writeError(w, http.StatusServiceUnavailable, CodeOverloaded, "%v", err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, CodeShuttingDown, "%v", err)
	case errors.Is(err, ErrModelNotFound):
		writeError(w, http.StatusNotFound, CodeModelNotFound, "%v", err)
	case errors.Is(err, ErrInvalidInstance):
		// The model was hot-swapped to a different dimensionality between
		// boundary validation and scoring.
		e.metrics.countRejected()
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
	}
}

func (s *Server) writeModelNotFound(w http.ResponseWriter, id string) {
	writeError(w, http.StatusNotFound, CodeModelNotFound, "model %q is not registered", id)
}

// liveState resolves id to its entry and current state (nil when the id is
// unknown or removed).
func (s *Server) liveState(id string) (*entry, *modelState) {
	e := s.reg.lookup(id)
	if e == nil {
		return nil, nil
	}
	return e, e.state.Load()
}
