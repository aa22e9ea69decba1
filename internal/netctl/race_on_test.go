//go:build race

package netctl

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
