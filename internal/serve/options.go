// Functional options: the serve configuration surface, mirroring the
// iotml.Fit option idiom so fitting and serving share one API style.

package serve

import "time"

// settings is the resolved serving configuration an Option mutates. It is
// unexported: callers compose Options, the server resolves them once at New
// and never mutates them afterwards.
type settings struct {
	// MaxBatch caps the instances coalesced into one scoring batch.
	MaxBatch int
	// Workers is the per-model scoring worker count.
	Workers int
	// QueueDepth bounds pending requests per model; beyond it predictions
	// are shed with 429.
	QueueDepth int
	// GlobalQueueDepth bounds in-flight predictions across every model;
	// beyond it predictions are shed with 503.
	GlobalQueueDepth int
	// MaxRequestBytes bounds a predict body.
	MaxRequestBytes int64
	// DrainTimeout bounds the graceful half of a shutdown or swap drain.
	DrainTimeout time.Duration
	// ModelDir, when set, is scanned for *.iotml artifacts at startup and
	// polled every ReloadInterval for changes (hot-swap).
	ModelDir string
	// ReloadInterval is the ModelDir polling period.
	ReloadInterval time.Duration
}

func defaultSettings() settings {
	return settings{
		MaxBatch:         64,
		Workers:          2,
		QueueDepth:       256,
		GlobalQueueDepth: 1024,
		MaxRequestBytes:  32 << 20,
		DrainTimeout:     10 * time.Second,
		ReloadInterval:   2 * time.Second,
	}
}

// Option configures one aspect of a New call. Options are applied in
// order, so a later option overrides an earlier one; the zero set of
// options gives 64-instance batches, 2 workers per model and 256-deep
// model queues.
type Option func(*settings)

// WithMaxBatch caps the instances coalesced into one scoring batch
// (default 64). Values <= 0 keep the default.
func WithMaxBatch(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.MaxBatch = n
		}
	}
}

// WithWorkers sets the scoring worker count per model, each owning its
// predictor and scratch (default 2). Values <= 0 keep the default.
func WithWorkers(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.Workers = n
		}
	}
}

// WithQueueDepth bounds pending requests per model (default 256); beyond
// it predictions are shed with 429 and a Retry-After hint. Values <= 0
// keep the default.
func WithQueueDepth(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.QueueDepth = n
		}
	}
}

// WithGlobalQueueDepth bounds in-flight predictions across every model
// (default 1024); beyond it predictions are shed with 503 — the server is
// saturated as a whole, so retrying another model would not help. Values
// <= 0 keep the default.
func WithGlobalQueueDepth(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.GlobalQueueDepth = n
		}
	}
}

// WithMaxRequestBytes bounds a predict request body (default 32 MiB).
// Values <= 0 keep the default.
func WithMaxRequestBytes(n int64) Option {
	return func(s *settings) {
		if n > 0 {
			s.MaxRequestBytes = n
		}
	}
}

// WithDrainTimeout bounds the graceful half of a shutdown or hot-swap
// drain (default 10s): how long in-flight micro-batches may take to finish
// before the old pipeline is force-closed. Values <= 0 keep the default.
func WithDrainTimeout(d time.Duration) Option {
	return func(s *settings) {
		if d > 0 {
			s.DrainTimeout = d
		}
	}
}

// WithModelDir points the server at a directory of *.iotml artifacts:
// every artifact is loaded at startup (model id = file name minus the
// extension) and the directory is polled every WithReloadInterval for
// changed, added, or removed files — a changed artifact is loaded, warmed,
// and swapped in atomically while the old model drains.
func WithModelDir(dir string) Option {
	return func(s *settings) { s.ModelDir = dir }
}

// WithReloadInterval sets the ModelDir polling period (default 2s). Values
// <= 0 keep the default.
func WithReloadInterval(d time.Duration) Option {
	return func(s *settings) {
		if d > 0 {
			s.ReloadInterval = d
		}
	}
}
