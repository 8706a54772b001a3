//go:build race

package mkl

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts of pooled paths say nothing there.
const raceEnabled = true
