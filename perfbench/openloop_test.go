package main

import (
	"math"
	"testing"
	"time"
)

// A stalled request must charge its wait to the requests scheduled behind
// it (latency counts from the due time), while the generator keeps to its
// schedule instead of waiting for the stalled sender.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		interval = 5 * time.Millisecond
		stall    = 100 * time.Millisecond
		count    = 10
	)
	ts := openLoop(time.Now(), count, interval, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if got := ts[1].latency(); got < stall-2*interval {
		t.Errorf("request behind the stall: latency %v, want at least %v", got, stall-2*interval)
	}
	if got := ts[1].done.Sub(ts[1].started); got > stall/2 {
		t.Errorf("request behind the stall took %v itself; the wait belongs to the queue", got)
	}
	for i, tm := range ts {
		if tm.late() > stall/2 {
			t.Errorf("request %d dispatched %v late: the generator waited for the sender", i, tm.late())
		}
		if want := ts[0].due.Add(time.Duration(i) * interval); !tm.due.Equal(want) {
			t.Errorf("request %d due %v, want %v", i, tm.due, want)
		}
	}
}

func TestLatenessAccounting(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	ts := []timing{
		{due: at(0), sent: at(0)},
		{due: at(10 * time.Millisecond), sent: at(10*time.Millisecond + 500*time.Microsecond)},
		{due: at(20 * time.Millisecond), sent: at(22 * time.Millisecond)},
		{due: at(30 * time.Millisecond), sent: at(35 * time.Millisecond)},
	}
	worst, frac := lateness(ts)
	if worst != 5*time.Millisecond || math.Abs(frac-0.5) > 1e-12 {
		t.Errorf("lateness = %v, %v; want 5ms, 0.5", worst, frac)
	}
	if worst, frac := lateness(nil); worst != 0 || frac != 0 {
		t.Errorf("empty lateness = %v, %v", worst, frac)
	}
}

func TestBacklogCountsDispatchedButNotStarted(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ts := []timing{
		{sent: at(0), started: at(1)},  // begun before the instant
		{sent: at(2), started: at(9)},  // queued at the instant
		{sent: at(4), started: at(12)}, // queued at the instant
		{sent: at(8), started: at(8)},  // not yet dispatched
	}
	if got := backlog(ts, at(5)); got != 2 {
		t.Errorf("backlog = %d, want 2", got)
	}
}
