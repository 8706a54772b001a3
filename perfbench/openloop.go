package main

import (
	"sync"
	"time"
)

// timing is one open-loop request's clock readings.
type timing struct {
	due     time.Time // when the schedule said to send it
	sent    time.Time // when the generator handed it to the senders
	started time.Time // when a sender began the request
	done    time.Time
	err     error
}

// latency counts from the due time, so a stall also charges the wait it
// imposes on every request scheduled behind it.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// late is how far behind its schedule the generator dispatched.
func (t timing) late() time.Duration { return t.sent.Sub(t.due) }

// openLoop issues count requests on a fixed schedule, request i due at
// start + i·interval, whatever the state of earlier requests; senders
// goroutines perform them in order through do(i), so at most senders are
// in flight and the rest queue. It returns once every request completed.
func openLoop(start time.Time, count int, interval time.Duration, senders int, do func(i int) error) []timing {
	ts := make([]timing, count)
	// Sized to the number of sends: the generator never blocks on a busy
	// sender, so its lateness measures only its own timing.
	queue := make(chan int, count)
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				ts[i].started = time.Now()
				ts[i].err = do(i)
				ts[i].done = time.Now()
			}
		}()
	}
	for i := range count {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ts[i].due = due
		ts[i].sent = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return ts
}

// lateThreshold is how far behind schedule a dispatch may be before it
// counts as late.
const lateThreshold = time.Millisecond

// lateness summarizes how far the generator fell behind its schedule: the
// worst dispatch delay and the share of dispatches later than
// lateThreshold.
func lateness(ts []timing) (worst time.Duration, frac float64) {
	late := 0
	for _, t := range ts {
		worst = max(worst, t.late())
		if t.late() > lateThreshold {
			late++
		}
	}
	return worst, ratio(float64(late), float64(len(ts)))
}

// backlog counts the requests dispatched by instant at but not yet begun
// by a sender.
func backlog(ts []timing, at time.Time) int {
	n := 0
	for _, t := range ts {
		if !t.sent.After(at) && t.started.After(at) {
			n++
		}
	}
	return n
}
