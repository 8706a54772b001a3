//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts of recycled paths say nothing there.
const raceEnabled = true
