// Registry: the model store behind the multi-model server. Each entry
// binds a model id to an atomically swappable state (artifact, content
// fingerprint, scoring pipeline) plus counters that survive swaps.
//
// # Hot-swap atomicity contract
//
// Load on an existing id builds and warms the NEW pipeline first, then
// publishes it with one atomic pointer store, then drains the OLD pipeline
// through the graceful-shutdown machinery in the background. A request
// reads the pointer exactly once and is answered end-to-end by the state
// it read, so every response is computed wholly by the old model or wholly
// by the new one — never a mixture — and a sequential client observes a
// single monotonic switchover. Requests admitted to the old pipeline
// before the swap drain to completion (zero dropped admitted requests);
// requests that race the drain's admission gate retry on the published
// successor, so the swap window sheds nothing.
package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// Registry holds the models a Server routes predictions to. Create one
// with NewRegistry, populate it with Load/LoadFile (or let
// WithModelDir do it), and hand it to New; Load keeps working after the
// server attaches — that is the hot-swap path.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	// attached is set once by New: pipelines exist only from then on, built
	// with the server's resolved settings.
	srv *Server
	// drains tracks background old-pipeline drains so Shutdown can wait
	// for them instead of leaking workers.
	drains sync.WaitGroup
}

// entry is one model id's slot: the swappable state plus swap-surviving
// metrics.
type entry struct {
	id      string
	state   atomic.Pointer[modelState]
	metrics modelMetrics
}

// modelState is the immutable value an atomic swap publishes.
type modelState struct {
	art      *model.Artifact
	fp       string
	pipe     *pipeline // nil until a server attaches
	loadedAt time.Time
	source   string // artifact file path, when loaded from one
}

// ModelInfo describes one registered model for listings and the HTTP
// metadata endpoints.
type ModelInfo struct {
	ID          string    `json:"id"`
	Fingerprint string    `json:"fingerprint"`
	LoadedAt    time.Time `json:"loaded_at"`
	Source      string    `json:"source,omitempty"`
	LearnerKind string    `json:"learner_kind"`
	Learner     string    `json:"learner,omitempty"`
	Partition   string    `json:"partition"`
	Dim         int       `json:"dim"`
	NumTrain    int       `json:"n_train"`
	Swaps       int64     `json:"swaps"`
}

// NewRegistry returns an empty model registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// validateModelID enforces URL- and Prometheus-label-safe ids: non-empty,
// letters, digits, '.', '_', '-'.
func validateModelID(id string) error {
	if id == "" {
		return fmt.Errorf("serve: empty model id")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("serve: model id %q contains %q (allowed: letters, digits, '.', '_', '-')", id, r)
		}
	}
	return nil
}

// Load registers art under id, or — if id is already registered — hot-swaps
// it in: the new pipeline is built and warmed before the single atomic
// publish, and the old pipeline drains in the background (see the package
// contract above). source annotates where the artifact came from ("" for
// in-memory loads).
func (r *Registry) Load(id string, art *model.Artifact) error {
	return r.load(id, art, "")
}

// LoadFile reads the artifact at path and registers (or hot-swaps) it
// under id.
func (r *Registry) LoadFile(id, path string) error {
	art, err := model.LoadFile(path)
	if err != nil {
		return err
	}
	return r.load(id, art, path)
}

func (r *Registry) load(id string, art *model.Artifact, source string) error {
	if err := validateModelID(id); err != nil {
		return err
	}
	if err := art.Validate(); err != nil {
		return err
	}
	fp, err := art.Fingerprint()
	if err != nil {
		return err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[id]
	if e == nil {
		e = &entry{id: id}
		r.entries[id] = e
	}
	st := &modelState{art: art, fp: fp, loadedAt: time.Now(), source: source}
	if r.srv != nil {
		// Build and warm the successor BEFORE publishing, so the swap point
		// is the single atomic store below and no request ever waits on
		// predictor construction.
		pipe, err := newPipeline(art, r.srv.cfg, &e.metrics)
		if err != nil {
			return err
		}
		st.pipe = pipe
	}
	old := e.state.Swap(st)
	if old != nil {
		e.metrics.countSwap()
		if old.pipe != nil {
			r.drainLocked(old.pipe)
		}
	}
	return nil
}

// Remove unregisters id, draining its pipeline in the background. It
// reports whether the id was registered. In-flight admitted requests still
// receive their answers; new requests for the id get ErrModelNotFound.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return false
	}
	delete(r.entries, id)
	// Publish the removal before the drain so racing requests see "model
	// not found" rather than "draining" and retry into the void.
	old := e.state.Swap(nil)
	if old != nil && old.pipe != nil {
		r.drainLocked(old.pipe)
	}
	return true
}

// drainLocked starts a background graceful drain of pipe, bounded by the
// attached server's DrainTimeout (a pipeline exists only once a server is
// attached). Caller holds r.mu.
func (r *Registry) drainLocked(pipe *pipeline) {
	timeout := r.srv.cfg.DrainTimeout
	r.drains.Add(1)
	go func() {
		defer r.drains.Done()
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		_ = pipe.shutdown(ctx)
	}()
}

// IDs returns the registered model ids, sorted.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.entries))
	for id := range r.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Info describes one registered model.
func (r *Registry) Info(id string) (ModelInfo, bool) {
	e := r.lookup(id)
	if e == nil {
		return ModelInfo{}, false
	}
	st := e.state.Load()
	if st == nil {
		return ModelInfo{}, false
	}
	return ModelInfo{
		ID:          e.id,
		Fingerprint: st.fp,
		LoadedAt:    st.loadedAt,
		Source:      st.source,
		LearnerKind: st.art.LearnerKind,
		Learner:     st.art.Learner,
		Partition:   st.art.Partition.String(),
		Dim:         st.art.Dim(),
		NumTrain:    st.art.NumTrain(),
		Swaps:       e.metrics.Snapshot().Swaps,
	}, true
}

// Fingerprint returns the registered model's content fingerprint.
func (r *Registry) Fingerprint(id string) (string, bool) {
	e := r.lookup(id)
	if e == nil {
		return "", false
	}
	st := e.state.Load()
	if st == nil {
		return "", false
	}
	return st.fp, true
}

// Snapshot returns a consistent copy of every model's metrics, keyed by id.
func (r *Registry) Snapshot() map[string]Metrics {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	out := make(map[string]Metrics, len(entries))
	for _, e := range entries {
		out[e.id] = e.metrics.Snapshot()
	}
	return out
}

func (r *Registry) lookup(id string) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries[id]
}

// attach binds the registry to its server: pipelines are built for every
// registered model with the server's settings, and later Loads build them
// eagerly. A registry serves at most one Server.
func (r *Registry) attach(s *Server) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.srv != nil {
		return fmt.Errorf("serve: registry is already attached to a server")
	}
	r.srv = s
	for id, e := range r.entries {
		st := e.state.Load()
		if st == nil || st.pipe != nil {
			continue
		}
		pipe, err := newPipeline(st.art, s.cfg, &e.metrics)
		if err != nil {
			return fmt.Errorf("serve: model %q: %w", id, err)
		}
		next := *st
		next.pipe = pipe
		e.state.Store(&next)
	}
	return nil
}

// shutdownAll gracefully drains every pipeline (and waits for background
// swap drains), bounded by ctx.
func (r *Registry) shutdownAll(ctx context.Context) error {
	var wg sync.WaitGroup
	r.mu.Lock()
	errc := make(chan error, len(r.entries))
	for _, e := range r.entries {
		st := e.state.Load()
		if st == nil || st.pipe == nil {
			continue
		}
		wg.Add(1)
		go func(p *pipeline) {
			defer wg.Done()
			if err := p.shutdown(ctx); err != nil {
				errc <- err
			}
		}(st.pipe)
	}
	r.mu.Unlock()
	wg.Wait()
	r.drains.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// listArtifacts returns the sorted *.iotml paths in dir.
func listArtifacts(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: reading model dir: %w", err)
	}
	var files []string
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".iotml") {
			continue
		}
		files = append(files, filepath.Join(dir, de.Name()))
	}
	sort.Strings(files)
	return files, nil
}

// modelIDForFile derives the model id from an artifact path: the file name
// minus the .iotml extension.
func modelIDForFile(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".iotml")
}
