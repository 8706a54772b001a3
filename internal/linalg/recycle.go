// The buffer recycler: a fixed table of sync.Pools per storage width, one
// per size class, from which Reshape and ReshapePacked draw whenever they
// would otherwise allocate, and to which Dense.Release and Packed.Release
// (and the package's own transient buffers) hand storage back. A drawn
// buffer is not zeroed, so every caller writes an entry before reading
// it, the contract Reshape has always stated for reused capacity. Storage
// goes back only when its owner ends, and the GC alone bounds what the
// pools retain: sync.Pool frees an entry unused for two collections, so
// nothing here needs a setting. The number of pools is fixed, whatever
// lengths a long-lived process asks for.
package linalg

import (
	"math"
	"math/bits"
	"sync"
	"unsafe"
)

// Size classes. Lengths up to 2·classSteps have a class each; above that,
// every octave (2^k, 2^(k+1)] splits into classSteps classes of equal
// width, so a class's capacity exceeds any length it serves by under
// 1/classSteps. Lengths past maxPooled (never a Gram buffer) are neither
// drawn nor recycled.
const (
	classSteps = 8
	classShift = 3 // log2(classSteps)
	maxPooled  = 1 << 30
)

// numClasses is the size of each width's pool table: class 0 (length 0)
// through the class of maxPooled.
var numClasses = classOf(maxPooled) + 1

// pools holds the float64 pools at index 0 and the float32 ones at 1, one
// per size class. A pooled entry is the unsafe.Pointer to a buffer's
// first element, whose capacity is at least its class's; a pointer boxes
// into the pool's interface without allocating, which a slice header
// would not.
var pools = [2][]sync.Pool{make([]sync.Pool, numClasses), make([]sync.Pool, numClasses)}

// poisonRecycled makes the recycler fill every buffer it takes back and
// every fresh one it hands out with NaN, so that reading an entry before
// writing it, or after releasing it, shows in results. Race builds set it
// (recycle_race.go).
var poisonRecycled bool

// poolsOf returns the pool table of T's width.
func poolsOf[T Float]() []sync.Pool {
	if unsafe.Sizeof(T(0)) == 4 {
		return pools[1]
	}
	return pools[0]
}

// classOf returns the smallest size class whose capacity is at least n,
// for 0 <= n <= maxPooled.
func classOf(n int) int {
	if n <= 2*classSteps {
		return n
	}
	s := bits.Len(uint(n-1)) - classShift - 1
	return s<<classShift + (n-1)>>s + 1
}

// classCap returns the capacity of size class c: the largest length it
// serves.
func classCap(c int) int {
	if c <= 2*classSteps {
		return c
	}
	s := (c-1)>>classShift - 1
	return (classSteps + (c-1)%classSteps + 1) << s
}

// draw returns a buffer of exactly n elements with unspecified contents:
// a recycled one when n's size class holds one, else a fresh allocation
// of the class's capacity.
//
//iotml:hotpath
func draw[T Float](n int) []T {
	if n == 0 {
		return []T{}
	}
	if n > maxPooled {
		return make([]T, n)
	}
	c := classOf(n)
	if v, ok := poolsOf[T]()[c].Get().(unsafe.Pointer); ok {
		return unsafe.Slice((*T)(v), classCap(c))[:n]
	}
	buf := make([]T, classCap(c))
	poison(buf)
	return buf[:n]
}

// recycle hands buf's storage, up to its capacity, back to the largest
// size class that capacity covers. Nothing may read or write buf
// afterwards.
//
//iotml:hotpath
func recycle[T Float](buf []T) {
	buf = buf[:cap(buf)]
	if len(buf) == 0 || len(buf) > maxPooled {
		return
	}
	c := classOf(len(buf))
	if classCap(c) > len(buf) {
		c--
	}
	poison(buf)
	poolsOf[T]()[c].Put(unsafe.Pointer(&buf[0]))
}

// poison fills buf with NaN when poisonRecycled is set.
func poison[T Float](buf []T) {
	if !poisonRecycled {
		return
	}
	nan := T(math.NaN())
	for i := range buf {
		buf[i] = nan
	}
}

// Release hands m's storage to the recycler, for a later Reshape to
// reuse, and leaves m a 0×0 matrix without storage; a nil m is a no-op.
// Only the storage's sole owner may release it: no other matrix or slice
// may still read it.
func (m *Dense[T]) Release() {
	if m == nil {
		return
	}
	recycle(m.Data)
	m.Rows, m.Cols, m.Data = 0, 0, nil
}

// Release is Dense.Release for a packed matrix.
func (p *Packed[T]) Release() {
	if p == nil {
		return
	}
	recycle(p.Data)
	p.N, p.Data = 0, nil
}
