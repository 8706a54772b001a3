package serve

import (
	"testing"
	"time"
)

func resolve(opts ...Option) settings {
	cfg := defaultSettings()
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// TestDefaultsMatchPR4 pins the zero-option settings to the PR 4 defaults:
// existing deployments that migrate to the option API without passing
// anything must behave identically.
func TestDefaultsMatchPR4(t *testing.T) {
	got := resolve()
	want := settings{
		MaxBatch:         64,
		Workers:          2,
		QueueDepth:       256,
		GlobalQueueDepth: 1024,
		MaxRequestBytes:  32 << 20,
		DrainTimeout:     10 * time.Second,
		ReloadInterval:   2 * time.Second,
	}
	if got != want {
		t.Fatalf("defaults = %+v, want %+v", got, want)
	}
}

// TestOptionsIgnoreNonPositive: zero and negative values keep the default
// rather than producing a broken (0-worker, 0-depth) server.
func TestOptionsIgnoreNonPositive(t *testing.T) {
	def := defaultSettings()
	for _, n := range []int{0, -1} {
		got := resolve(
			WithMaxBatch(n), WithWorkers(n), WithQueueDepth(n), WithGlobalQueueDepth(n),
			WithMaxRequestBytes(int64(n)),
			WithDrainTimeout(time.Duration(n)), WithReloadInterval(time.Duration(n)),
		)
		if got != def {
			t.Fatalf("non-positive values (%d) changed settings: %+v, want %+v", n, got, def)
		}
	}
}

// TestOptionsApplyInOrder: a later option overrides an earlier one.
func TestOptionsApplyInOrder(t *testing.T) {
	got := resolve(WithMaxBatch(8), WithMaxBatch(32))
	if got.MaxBatch != 32 {
		t.Fatalf("MaxBatch = %d, want the later option's 32", got.MaxBatch)
	}
}

// TestServingOptions: the new serving-surface options resolve as documented.
func TestServingOptions(t *testing.T) {
	got := resolve(
		WithModelDir("/tmp/models"),
		WithReloadInterval(500*time.Millisecond),
		WithGlobalQueueDepth(9),
	)
	if got.ModelDir != "/tmp/models" ||
		got.ReloadInterval != 500*time.Millisecond || got.GlobalQueueDepth != 9 {
		t.Fatalf("resolved %+v", got)
	}
}
