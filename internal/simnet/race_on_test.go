//go:build race

package simnet

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
