// Package retry provides the jittered exponential backoff shared by the
// fault-tolerant subsystems: the distributed search coordinator
// (internal/distsearch) backing off between shard re-dispatches, and the
// serving layer's artifact watcher (internal/serve) recovering from
// transient reload errors without waiting out a full poll interval.
//
// A Policy is a pure value — Delay is a function of the attempt number and
// the supplied random source, so callers that need reproducible schedules
// (the distributed fault-injection tests) pass a seeded *rand.Rand and get
// the same delays every run, while fire-and-forget callers pass nil and
// share a locked package-level source. That fallback source is itself
// deterministic (fixed seed) so library and test behavior is reproducible
// by default; binaries that want per-process jitter spread re-seed it once
// at startup via Seed — the CLI edge does, from the wall clock.
package retry

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Policy describes a jittered exponential backoff schedule. The zero value
// selects the defaults noted on each field.
type Policy struct {
	// Base is the delay before the first retry (default 50ms).
	Base time.Duration
	// Max caps the grown delay before jitter (default 2s).
	Max time.Duration
	// Factor is the per-attempt growth multiplier (default 2).
	Factor float64
	// Jitter is the fraction of symmetric random jitter applied to the
	// grown delay: the returned delay is uniform in
	// [d·(1−Jitter), d·(1+Jitter)]. Values outside (0, 1) select the
	// default 0.2; pass a tiny value like 1e-9 for effectively none.
	Jitter float64
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	if p.Factor < 1 {
		p.Factor = 2
	}
	if p.Jitter <= 0 || p.Jitter >= 1 {
		p.Jitter = 0.2
	}
	return p
}

// pkgRng is the shared fallback randomness for callers that pass a nil rng;
// rand.Rand is not concurrency-safe, so it hides behind a mutex. The seed
// is fixed so nil-rng schedules are deterministic unless a binary opts
// into per-process spread via Seed.
var (
	pkgMu  sync.Mutex
	pkgRng = rand.New(rand.NewSource(1))
)

// Seed re-seeds the shared fallback jitter source used when a caller
// passes a nil rng. The package default is deterministic, which is what
// tests and libraries want; long-running fleets call Seed once at process
// startup (the iotml CLI seeds from the wall clock) so replicas do not
// share a jitter schedule and retry in lockstep.
func Seed(seed int64) {
	pkgMu.Lock()
	pkgRng = rand.New(rand.NewSource(seed))
	pkgMu.Unlock()
}

func (p Policy) jittered(d time.Duration, rng *rand.Rand) time.Duration {
	var u float64
	if rng != nil {
		u = rng.Float64()
	} else {
		pkgMu.Lock()
		u = pkgRng.Float64()
		pkgMu.Unlock()
	}
	// Uniform in [1−J, 1+J).
	scale := 1 - p.Jitter + 2*p.Jitter*u
	j := time.Duration(float64(d) * scale)
	if j < time.Millisecond {
		j = time.Millisecond
	}
	return j
}

// Delay returns the jittered delay before retry `attempt` (0-based: the
// delay between the first failure and the second try is Delay(0, rng)).
// A nil rng draws jitter from a shared locked source.
func (p Policy) Delay(attempt int, rng *rand.Rand) time.Duration {
	p = p.withDefaults()
	d := float64(p.Base)
	maxF := float64(p.Max)
	for i := 0; i < attempt && d < maxF; i++ {
		d *= p.Factor
	}
	if d > maxF {
		d = maxF
	}
	return p.jittered(time.Duration(d), rng)
}

// Sleep blocks for the jittered delay of retry `attempt`, or until ctx is
// done, reporting ctx.Err() in the latter case. It is the cancellable
// wait of the coordinator's dispatch loop.
func Sleep(ctx context.Context, p Policy, attempt int, rng *rand.Rand) error {
	t := time.NewTimer(p.Delay(attempt, rng))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
