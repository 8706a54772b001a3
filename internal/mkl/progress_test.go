package mkl

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/stats"
)

func progressTestData(t testing.TB) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultBiometricConfig()
	cfg.N = 60
	d := dataset.SyntheticBiometric(cfg, stats.NewRNG(1))
	d.Standardize()
	return d
}

// eventRecord is an Event stripped of its wall-clock stamp, for stream
// comparison.
type eventRecord struct {
	kind  EventKind
	part  string
	score float64
	best  string
	bestS float64
	evals int
}

func record(ev Event) eventRecord {
	return eventRecord{ev.Kind, ev.Partition.String(), ev.Score, ev.Best.String(), ev.BestScore, ev.Evaluations}
}

// TestProgressStreamDeterministicAcrossWorkers: the event stream of a chain
// search — kinds, partitions, scores, best-so-far state, in order — is
// identical at every worker count, because parallel strategies emit from
// the canonical-order reduction.
func TestProgressStreamDeterministicAcrossWorkers(t *testing.T) {
	d := progressTestData(t)
	seed := partition.Coarsest(d.D())
	run := func(workers int) []eventRecord {
		var got []eventRecord
		e, err := NewEvaluator(d, Config{
			Seed: 1, Parallelism: workers,
			Progress: func(ev Event) { got = append(got, record(ev)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ChainSearch(e, seed, BestOfChain); err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("sequential search emitted no events")
	}
	sawCandidate, sawImproved := false, false
	for _, ev := range want {
		switch ev.kind {
		case EventCandidateEvaluated:
			sawCandidate = true
		case EventBestImproved:
			sawImproved = true
		}
	}
	if !sawCandidate || !sawImproved {
		t.Fatalf("stream missing expected kinds: %+v", want)
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d events, sequential emitted %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: event %d = %+v, sequential %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestProgressBestScoreMonotone: the best-so-far carried on every event
// never decreases, and every EventBestImproved matches its preceding
// candidate event.
func TestProgressBestScoreMonotone(t *testing.T) {
	d := progressTestData(t)
	var events []Event
	e, err := NewEvaluator(d, Config{Seed: 1, Parallelism: 1, Progress: func(ev Event) {
		if ev.Time.IsZero() {
			t.Error("event missing timestamp")
		}
		events = append(events, ev)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GreedyRefine(e, partition.Coarsest(d.D())); err != nil {
		t.Fatal(err)
	}
	last := -1.0
	for i, ev := range events {
		if ev.BestScore < last {
			t.Fatalf("event %d: best score dropped %v -> %v", i, last, ev.BestScore)
		}
		last = ev.BestScore
		if ev.Kind == EventBestImproved {
			if i == 0 || events[i-1].Kind != EventCandidateEvaluated || events[i-1].Score != ev.Score {
				t.Fatalf("event %d: best-improved not paired with its candidate", i)
			}
		}
	}
}

// TestPreCancelledContextFailsFast: a context that is already done fails
// Score (and therefore any search) before any evaluation happens.
func TestPreCancelledContextFailsFast(t *testing.T) {
	d := progressTestData(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := NewEvaluator(d, Config{Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.SetContext(ctx)
	res, err := ChainSearch(e, partition.Coarsest(d.D()), BestOfChain)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil && len(res.Trace) != 0 {
		t.Fatalf("dead context still evaluated %d candidates", len(res.Trace))
	}
	if e.Evaluations() != 0 {
		t.Fatalf("dead context still computed %d configurations", e.Evaluations())
	}
}

// TestProgressAndContextPlumbingAddsNoAllocs: binding a context and a
// progress callback must not add a single allocation to the steady-state
// candidate-evaluation path (the zero-alloc guarantee of the CV fast path
// carries over to the new Fit plumbing).
func TestProgressAndContextPlumbingAddsNoAllocs(t *testing.T) {
	d := progressTestData(t)
	p := d.ViewPartition()

	measure := func(e *Evaluator) float64 {
		if _, err := e.Score(p); err != nil { // warm caches and scratch
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			e.ClearScoreCache()
			if _, err := e.Score(p); err != nil {
				t.Fatal(err)
			}
		})
	}

	plain, err := NewEvaluator(d, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseline := measure(plain)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events atomic.Int64
	wired, err := NewEvaluator(d, Config{Seed: 1, Progress: func(Event) { events.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	wired.SetContext(ctx)
	got := measure(wired)

	if got > baseline {
		t.Fatalf("options/progress plumbing allocates: %v allocs/op with ctx+progress, %v without", got, baseline)
	}
}
