// Package par is the one worker pool: every index loop in the stack that
// fans out across cores — simnet's settle passes, region mapping and roam
// screen, the experiments' Monte Carlo trials, the filterbank's extraction
// ranges and per-channel demodulators, mmx-ap's wideband synthesis — runs
// through For.
//
// Results are independent of scheduling as long as each index writes only
// its own output slot (or its lane's scratch, merged afterwards in a fixed
// order): indexes are claimed off one atomic counter, so which goroutine
// runs which index varies from run to run, but the set of writes does not.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Lanes is the number of goroutines For runs n indexes on: workers
// (≤ 0 means GOMAXPROCS), never more than n, at least 1.
func Lanes(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// For runs fn(lane, i) for every i in [0, n) on Lanes(workers, n)
// goroutines and returns when all have finished. lane in [0, Lanes(workers,
// n)) names the goroutine running i, so fn may append to per-lane scratch.
// With one lane it is the plain loop on the caller, in index order.
func For(workers, n int, fn func(lane, i int)) {
	lanes := Lanes(workers, n)
	if lanes == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(lanes)
	for lane := 0; lane < lanes; lane++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(lane, i)
			}
		}()
	}
	wg.Wait()
}
