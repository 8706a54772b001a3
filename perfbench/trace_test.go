package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "fit", Start: ms(0), End: ms(100)},
		// Overlapping children cover [10,40) once, not twice.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(40)},
		// A child running past its parent is clipped to [90,100).
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)},
		{ID: 5, Parent: 2, Name: "d", Start: ms(12), End: ms(14)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(60), 2: ms(18), 3: ms(20), 4: ms(30), 5: ms(2)} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
}
