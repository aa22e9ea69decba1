//go:build race

package mmx

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
