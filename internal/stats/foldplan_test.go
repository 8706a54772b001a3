package stats

import (
	"reflect"
	"testing"
)

// TestFoldPlanMatchesKFold is the determinism contract of the CV fast path:
// a FoldPlan built from a given rng state holds exactly the index sets a
// direct KFold call on the same state returns — same values, same order.
func TestFoldPlanMatchesKFold(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 17} {
		for _, n := range []int{1, 2, 7, 60, 120} {
			for _, k := range []int{2, 3, 4, 5} {
				trains, tests := KFold(n, k, NewRNG(seed))
				plan := NewFoldPlan(n, k, NewRNG(seed))
				if !reflect.DeepEqual(plan.Trains, trains) || !reflect.DeepEqual(plan.Tests, tests) {
					t.Fatalf("seed %d n=%d k=%d: FoldPlan index sets differ from KFold", seed, n, k)
				}
				if plan.N != n || plan.K != len(tests) {
					t.Fatalf("seed %d n=%d k=%d: plan dims N=%d K=%d, want %d, %d", seed, n, k, plan.N, plan.K, n, len(tests))
				}
			}
		}
	}
}

func TestGatherLabels(t *testing.T) {
	y := []int{1, -1, -1, 1, 1}
	got := GatherLabels(y, [][]int{{4, 0, 2}, {1, 3}})
	want := [][]int{{1, 1, -1}, {-1, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GatherLabels = %v, want %v", got, want)
	}
}
