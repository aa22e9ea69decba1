//go:build !race

package channel

// raceEnabled reports whether the race detector is active. sync.Pool
// deliberately drops a fraction of Puts under the race detector, so
// allocation-count assertions over pooled paths only hold without it.
const raceEnabled = false
