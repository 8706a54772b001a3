// Deterministic fault injection for the distributed search tests: a
// FaultTransport wraps any Transport and injects failures decided by a
// pure function of the dispatch itself (worker address + shard
// candidates), so a scripted fault fires at the same logical point
// regardless of goroutine scheduling — "kill whichever worker receives
// the shard containing candidate 3" is deterministic even though which
// worker that is depends on the race.
package distsearch

import (
	"context"
	"errors"
	"sync"
)

// Fault is one injected failure mode.
type Fault int

const (
	// FaultNone passes the call through.
	FaultNone Fault = iota
	// FaultDrop fails the call immediately (a lost connection).
	FaultDrop
	// FaultHang blocks until the caller's deadline expires (a hung
	// worker), then reports the context error.
	FaultHang
	// FaultCorrupt returns the real scores under a wrong fingerprint
	// echo (a worker scoring a stale or damaged job).
	FaultCorrupt
	// FaultKill kills the worker: this call and every later call to the
	// same address fail (a crashed process).
	FaultKill
)

// errInjected is the failure surfaced by FaultDrop/FaultKill.
var errInjected = errors.New("distsearch: injected fault")

// FaultTransport wraps Inner with scripted failures. Only Score calls
// consult Decide; Install and Healthy pass through unless the address has
// been killed (matching a crashed process, which fails every verb).
type FaultTransport struct {
	Inner Transport
	// Decide inspects one score dispatch and returns the fault to
	// inject. A nil Decide never injects. Decide may be called from
	// several pump goroutines; FaultTransport serializes the calls.
	Decide func(addr string, keys []string) Fault

	mu     sync.Mutex
	killed map[string]bool
	// scored counts score calls that reached the inner transport, per
	// address — the tests' visibility into who did the work.
	scored map[string]int
}

func (t *FaultTransport) isKilled(addr string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.killed[addr]
}

func (t *FaultTransport) Install(ctx context.Context, addr string, job *Job) error {
	if t.isKilled(addr) {
		return errInjected
	}
	return t.Inner.Install(ctx, addr, job)
}

func (t *FaultTransport) Healthy(ctx context.Context, addr string) error {
	if t.isKilled(addr) {
		return errInjected
	}
	return t.Inner.Healthy(ctx, addr)
}

func (t *FaultTransport) Score(ctx context.Context, addr string, fingerprint string, keys []string) (scoreResponse, error) {
	t.mu.Lock()
	if t.killed[addr] {
		t.mu.Unlock()
		return scoreResponse{}, errInjected
	}
	fault := FaultNone
	if t.Decide != nil {
		fault = t.Decide(addr, keys)
	}
	if fault == FaultKill {
		if t.killed == nil {
			t.killed = map[string]bool{}
		}
		t.killed[addr] = true
	}
	t.mu.Unlock()
	switch fault {
	case FaultDrop, FaultKill:
		return scoreResponse{}, errInjected
	case FaultHang:
		<-ctx.Done()
		return scoreResponse{}, ctx.Err()
	}
	resp, err := t.Inner.Score(ctx, addr, fingerprint, keys)
	if err == nil {
		t.mu.Lock()
		if t.scored == nil {
			t.scored = map[string]int{}
		}
		t.scored[addr]++
		t.mu.Unlock()
	}
	if fault == FaultCorrupt && err == nil {
		resp.Fingerprint = "crc64:corrupted0000000"
	}
	return resp, err
}

// LoopbackTransport serves a WorkerServer fleet in-process, without a
// network: each address maps to a WorkerServer whose methods are invoked
// directly. It gives the fault-matrix tests real worker semantics
// (evaluator caches, fingerprint verification) at test speed; the HTTP
// layer is exercised separately by the end-to-end test and dist-smoke.
type LoopbackTransport struct {
	Workers map[string]*WorkerServer
}

// errNoSuchWorker mimics dialing a dead address.
var errNoSuchWorker = errors.New("distsearch: no such worker")

func (t *LoopbackTransport) Install(ctx context.Context, addr string, job *Job) error {
	w, ok := t.Workers[addr]
	if !ok {
		return errNoSuchWorker
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return w.install(job)
}

func (t *LoopbackTransport) Score(ctx context.Context, addr string, fingerprint string, keys []string) (scoreResponse, error) {
	w, ok := t.Workers[addr]
	if !ok {
		return scoreResponse{}, errNoSuchWorker
	}
	if err := ctx.Err(); err != nil {
		return scoreResponse{}, err
	}
	return w.score(fingerprint, keys)
}

func (t *LoopbackTransport) Healthy(ctx context.Context, addr string) error {
	if _, ok := t.Workers[addr]; !ok {
		return errNoSuchWorker
	}
	return ctx.Err()
}
