//go:build race

package queries

// raceEnabled reports whether the race detector is on; timings taken
// under it say nothing about the plans.
const raceEnabled = true
