package main

import (
	"bytes"
	"reflect"
	"testing"
)

// The program under test only sees generated bytes, so the same seed must
// give byte-identical inputs and another seed different ones.
func TestSeedPlumbing(t *testing.T) {
	csv := func(seed int64) []byte {
		b, err := fitCSV(seed, 40, 4)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(csv(7), csv(7)) {
		t.Error("fitCSV: same seed, different bytes")
	}
	if bytes.Equal(csv(7), csv(8)) {
		t.Error("fitCSV: different seeds, same bytes")
	}

	bodies := func(seed int64) predictBodies {
		pb, err := makeBodies(seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		return pb
	}
	a, b, c := bodies(7), bodies(7), bodies(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("makeBodies: same seed, different bodies")
	}
	if bytes.Equal(a.single[0], c.single[0]) || bytes.Equal(a.batch[0], c.batch[0]) {
		t.Error("makeBodies: different seeds, same bodies")
	}
	if len(a.single) != singleBodies || len(a.batch) != batchBodies {
		t.Errorf("body pool sizes %d/%d", len(a.single), len(a.batch))
	}

	if !reflect.DeepEqual(makePlan(7, 1, 500), makePlan(7, 1, 500)) {
		t.Error("makePlan: same seed, different plans")
	}
	if reflect.DeepEqual(makePlan(7, 1, 500), makePlan(8, 1, 500)) {
		t.Error("makePlan: different seeds, same plan")
	}
	batches := 0
	for _, p := range makePlan(7, 1, 2000) {
		if p.batch {
			batches++
		}
	}
	if batches < 140 || batches > 260 {
		t.Errorf("%d of 2000 requests are batches, want about %v", batches, batchShare*2000)
	}
}
