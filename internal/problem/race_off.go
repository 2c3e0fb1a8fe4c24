//go:build !race

package problem

// raceEnabled reports whether the race detector is compiled in. Allocation
// guards skip under it: the detector's instrumentation changes
// AllocsPerRun's exact counts.
const raceEnabled = false
