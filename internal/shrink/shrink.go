// Package shrink keeps a churned Go map from holding the memory of its
// largest population. A Go map never gives back the groups it grew: an
// address table that a re-join herd filled keeps the herd's size after
// the herd has gone, and how large it ends up depends on the worst burst
// the process happened to see. The control plane's per-node tables (the
// controller's records, the daemon's address table, a mux's routes)
// delete through Delete instead of the builtin.
package shrink

// minPeak is the smallest peak that is ever rebuilt from: a map that never
// held more entries than this fits in one or two groups, and leaving it
// alone keeps a small table's join/leave cycle free of allocations.
const minPeak = 8

// Delete removes k from *m. peak is the map's own high-water mark, kept by
// the caller beside it and zero for a new map; once the population has
// fallen to a quarter of it, *m is replaced by a copy sized for what is
// left and the mark restarts there. The copy moves at most a third as
// many entries as were deleted since the peak, so a delete stays O(1)
// amortised. The caller must not be ranging over *m.
func Delete[K comparable, V any](m *map[K]V, peak *int, k K) {
	old := *m
	if n := len(old); n > *peak {
		*peak = n
	}
	delete(old, k)
	n := len(old)
	if *peak <= minPeak || n > *peak/4 {
		return
	}
	fresh := make(map[K]V, n)
	for key, v := range old {
		fresh[key] = v
	}
	*m, *peak = fresh, n
}
