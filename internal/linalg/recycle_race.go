//go:build race

package linalg

// Race builds poison recycled and freshly drawn buffers (see
// poisonRecycled), so the race suites also check that every buffer the
// recycler hands out is written before it is read and never read after
// it is released.
func init() { poisonRecycled = true }
