package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no tracing). Spans of one fit or
// one request share Trace; Parent is the span whose interval caused this
// one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; write dumps them once
// the run ends. It is safe for concurrent use (HTTP middleware records
// from server goroutines).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), next: 1} }

// reserve allocates a span id ahead of the span's end, so children
// recorded on other goroutines can name their parent before it closes.
func (t *tracer) reserve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.next
	t.next++
	return id
}

// record stores a finished span under a reserved id (or a fresh id when
// id is 0) and returns the id.
func (t *tracer) record(id, parent, trace int, name string, start, end time.Time) int {
	if id == 0 {
		id = t.reserve()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to the
// parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfByTrace sums the self time of every span named name per trace id,
// in ascending trace order.
func selfByTrace(spans []span, self map[int]time.Duration, name string) []time.Duration {
	per := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == name {
			per[s.Trace] += self[s.ID]
		}
	}
	ids := make([]int, 0, len(per))
	for id := range per {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]time.Duration, len(ids))
	for i, id := range ids {
		out[i] = per[id]
	}
	return out
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
