package retry

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestDelayGrowsAndCaps pins the exponential schedule: each attempt's
// pre-jitter delay doubles from Base until Max, and jitter stays within the
// ±Jitter band.
func TestDelayGrowsAndCaps(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: 0.2}
	rng := rand.New(rand.NewSource(1))
	want := []time.Duration{10, 20, 40, 80, 80, 80} // ms, pre-jitter
	for a, wms := range want {
		d := p.Delay(a, rng)
		lo := time.Duration(float64(wms*time.Millisecond) * 0.8)
		hi := time.Duration(float64(wms*time.Millisecond) * 1.2)
		if d < lo || d > hi {
			t.Fatalf("Delay(%d) = %v, want within [%v, %v]", a, d, lo, hi)
		}
	}
}

// TestDelayDeterministicWithSeededRNG: the distributed fault tests rely on
// reproducible schedules from a seeded source.
func TestDelayDeterministicWithSeededRNG(t *testing.T) {
	p := Policy{Base: time.Millisecond, Max: time.Second}
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 10; i++ {
		if da, db := p.Delay(i, a), p.Delay(i, b); da != db {
			t.Fatalf("attempt %d: %v != %v with identical seeds", i, da, db)
		}
	}
}

// TestNilRngFallbackIsSeedable pins the seededrand burn-down fix: the
// shared nil-rng fallback is deterministic — re-seeding with the same
// value reproduces the identical jitter schedule — so only a process that
// explicitly seeds from the clock (the CLI edge) gets per-process spread.
func TestNilRngFallbackIsSeedable(t *testing.T) {
	defer Seed(1) // restore the package default for other tests
	p := Policy{Base: 10 * time.Millisecond, Max: time.Second}
	sample := func(seed int64) []time.Duration {
		Seed(seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = p.Delay(i, nil)
		}
		return out
	}
	a, b := sample(42), sample(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: %v != %v after identical Seed(42)", i, a[i], b[i])
		}
	}
	c := sample(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Seed(42) and Seed(43) produced identical schedules; jitter is not seed-driven")
	}
}

// TestSleepHonorsContext: cancellation ends a backoff sleep early with the
// context's error.
func TestSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Sleep(ctx, Policy{Base: time.Hour, Max: time.Hour}, 0, nil) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Sleep = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after cancellation")
	}
}

// TestSleepElapsesWithNil: a short backoff sleep on a live context runs
// out and returns nil.
func TestSleepElapsesWithNil(t *testing.T) {
	p := Policy{Base: time.Microsecond, Max: time.Microsecond, Jitter: 1e-9}
	if err := Sleep(context.Background(), p, 3, nil); err != nil {
		t.Fatalf("Sleep = %v, want nil", err)
	}
}
