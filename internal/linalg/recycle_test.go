package linalg

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestRecyclerClassesBoundPools: every length up to maxPooled maps into
// the fixed pool table, to the smallest class that holds it, and a class
// never exceeds a length it serves by 1/classSteps or more; so however
// many distinct lengths a process draws, the pools stay numClasses per
// width.
func TestRecyclerClassesBoundPools(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lengths := []int{maxPooled, maxPooled - 1, 1<<29 + 1, 360000, 180300}
	for n := 0; n <= 1<<14; n++ {
		lengths = append(lengths, n)
	}
	for i := 0; i < 1000; i++ {
		lengths = append(lengths, 1+rng.Intn(maxPooled))
	}
	for _, n := range lengths {
		c := classOf(n)
		if c < 0 || c >= numClasses {
			t.Fatalf("length %d maps to class %d outside [0, %d)", n, c, numClasses)
		}
		if got := classCap(c); got < n || (c > 0 && classCap(c-1) >= n) {
			t.Fatalf("length %d: class %d holds %d, class below %d; want the smallest class holding it", n, c, got, classCap(c-1))
		}
		if n > 2*classSteps && (classCap(c)-n)*classSteps >= classCap(c) {
			t.Fatalf("length %d: class capacity %d wastes 1/%d or more", n, classCap(c), classSteps)
		}
	}
	for c := 0; c < numClasses; c++ {
		if got := classOf(classCap(c)); got != c {
			t.Fatalf("class %d: its capacity %d maps to class %d", c, classCap(c), got)
		}
	}
	if len(pools[0]) != numClasses || len(pools[1]) != numClasses {
		t.Fatalf("pool tables hold %d and %d pools; want %d each", len(pools[0]), len(pools[1]), numClasses)
	}
}

// TestRecyclerReusesAcrossLengths: a buffer released at one length is
// drawn again for another length of its class, and a buffer whose
// capacity is no class capacity goes to the class below it, so a draw
// never gets less capacity than it asked for. sync.Pool may drop an entry
// (a collection, a race build, a goroutine moved to another P), so each
// check retries.
func TestRecyclerReusesAcrossLengths(t *testing.T) {
	reused := func(put, get int, fromMake bool) bool {
		for try := 0; try < 50; try++ {
			var buf []float64
			if fromMake {
				buf = make([]float64, put)
			} else {
				buf = draw[float64](put)
			}
			p := unsafe.Pointer(&buf[0])
			recycle(buf)
			got := draw[float64](get)
			if len(got) != get || cap(got) < get {
				t.Fatalf("draw(%d) returned len %d, cap %d", get, len(got), cap(got))
			}
			same := unsafe.Pointer(&got[0]) == p
			recycle(got)
			if same {
				return true
			}
		}
		return false
	}
	if !reused(1000, 970, false) {
		t.Fatal("a buffer drawn at length 1000 was never drawn again at 970, in the same class")
	}
	// make's 1000 elements cover class 960, not class 1024.
	if !reused(1000, 960, true) {
		t.Fatal("a made buffer of 1000 elements was never drawn again at 960")
	}
}
