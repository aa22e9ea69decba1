//go:build race

package channel

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
