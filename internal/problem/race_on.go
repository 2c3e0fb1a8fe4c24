//go:build race

package problem

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
