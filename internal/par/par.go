// Package par runs index loops across cores. It has two entries, for two
// sizes of work.
//
// For is the worker pool for coarse work: simnet's settle passes, region
// mapping and roam screen, the experiments' Monte Carlo trials, the
// filterbank's extraction ranges and per-channel demodulators, mmx-ap's
// wideband synthesis. It starts its goroutines per call, which a call that
// runs for milliseconds does not notice.
//
// Chunks is for fine work inside one frame: the OTAM waveform path's
// Gaussian deviates and phase rotation, the receiver's per-sample series.
// A call there lasts tens of microseconds and must not allocate, and a go
// statement allocates its closure (one allocation and about 2 µs per
// spawn). So Chunks runs on lanes that are started once, on first use,
// and live as long as the process, parked on a channel between calls.
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
	"time"
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

// Grain is the most indexes one chunk of Chunks holds; a call over no more
// than Grain indexes runs on its caller alone. It is a constant, not a
// knob: it sits above the 1 744 samples of a filterbank channel, so the
// per-channel demodulators, which already run one For lane each, stay
// inline, and a chunk's work outweighs handing it to a lane.
const Grain = 2048

// A Ranger is work over an index range: Range(lo, hi) handles [lo, hi).
// Chunks calls it concurrently on disjoint ranges. Passing a pointer the
// caller already holds (a pooled task, a receiver's own struct) keeps the
// call allocation-free.
type Ranger interface{ Range(lo, hi int) }

// Chunks runs t.Range over [0, n) in ceil(n/Grain) chunks of near-equal
// size and returns when every chunk has finished; with n ≤ Grain, or
// GOMAXPROCS 1, it is the one call t.Range(0, n) on the caller. The call
// queues itself for up to GOMAXPROCS−1 lanes and claims chunks too; a lane
// joins when it comes free, and the caller waits only for chunks a lane
// has already claimed. So a call from a busy For lane, or from inside
// another Chunks, never waits for a lane that is not coming.
func Chunks(n int, t Ranger) {
	chunks := (n + Grain - 1) / Grain
	helpers := min(runtime.GOMAXPROCS(0), chunks) - 1
	if helpers <= 0 {
		if n > 0 {
			t.Range(0, n)
		}
		return
	}
	startLanes(helpers)
	j := jobs.Get()
	if j.fin == nil {
		j.fin = make(chan struct{}, 1)
	}
	j.t, j.n, j.chunks = t, n, chunks
	j.next.Store(0)
	j.left.Store(int64(chunks))
	j.refs.Store(1)
	for range helpers {
		if !j.offer() {
			break
		}
	}
	j.work()
	spinUntil(waitSpin, func() bool { return j.left.Load() == 0 })
	<-j.fin
	j.release()
}

// job is one Chunks call as its lanes see it. It goes back to the free
// list when its last holder, the caller or a lane that was handed it, lets go,
// so a lane that dequeues it after the call has returned still reads a
// live job, finds no chunk left and drops it.
type job struct {
	t         Ranger
	n, chunks int
	next      atomic.Int64  // the next chunk to claim
	left      atomic.Int64  // chunks not yet finished
	refs      atomic.Int32  // the caller plus every lane handed the job
	fin       chan struct{} // one token, from whoever finishes the last chunk
}

// offer queues the job for a lane, or reports that the queue is full.
func (j *job) offer() bool {
	j.refs.Add(1)
	select {
	case handoff <- j:
		return true
	default:
		j.refs.Add(-1)
		return false
	}
}

// work claims and runs chunks until none is left.
func (j *job) work() {
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		j.t.Range(c*j.n/j.chunks, (c+1)*j.n/j.chunks)
		if j.left.Add(-1) == 0 {
			j.fin <- struct{}{}
		}
	}
}

func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.t = nil
		jobs.Put(j)
	}
}

// How long a lane polls for the next job before it parks, and a caller
// for the lanes' last chunks before it blocks (see spinUntil).
const (
	laneSpin = 200 * time.Microsecond
	waitSpin = 100 * time.Microsecond
)

// maxLanes bounds the lanes, and handoff holds as many jobs: a call queues
// one copy per lane it wants, so the queue fills only when lanes fall
// behind, and then a call runs its chunks itself.
const maxLanes = 64

var (
	jobs    FreeList[job]
	handoff = make(chan *job, maxLanes)

	lanesMu sync.Mutex
	lanes   atomic.Int32
)

// startLanes makes sure at least min(want, maxLanes) lanes exist. Lanes
// are never stopped.
func startLanes(want int) {
	want = min(want, maxLanes)
	if int(lanes.Load()) >= want {
		return
	}
	lanesMu.Lock()
	defer lanesMu.Unlock()
	for int(lanes.Load()) < want {
		go lane()
		lanes.Add(1)
	}
}

func lane() {
	for {
		var j *job
		if spinUntil(laneSpin, func() bool { return len(handoff) > 0 }) {
			select {
			case j = <-handoff:
			default:
				continue // another lane took it
			}
		} else {
			j = <-handoff
		}
		j.work()
		j.release()
	}
}

// spinUntil polls ready for up to limit and reports whether it came true.
// It yields the P every few polls, so a goroutine queued behind the
// spinner (the lane a caller just readied, say) still runs. Lanes spin
// before they park, and callers before they block on fin, because a
// parked goroutine takes tens of microseconds to wake and the next call
// of a frame's waveform path, or a lane's last chunk, usually comes
// sooner.
func spinUntil(limit time.Duration, ready func() bool) bool {
	start := time.Now()
	for i := 1; ; i++ {
		if ready() {
			return true
		}
		if i%128 == 0 {
			if time.Since(start) > limit {
				return false
			}
			runtime.Gosched()
		}
	}
}

// A FreeList recycles *T values between goroutines; its zero value is
// empty and ready. Chunks' jobs and the tasks its callers hand it live on
// free lists rather than in sync.Pools: a value released on one P is
// taken on another (a lane often releases what its caller took), which a
// sync.Pool's per-P private slot misses, and a collection does not empty
// it. It keeps at most freeCap values; Get makes a new one when it is
// empty.
type FreeList[T any] struct {
	mu    sync.Mutex
	n     int
	items [freeCap]*T
}

const freeCap = 16

// Get takes a value off the list, or returns new(T) if it is empty.
func (f *FreeList[T]) Get() *T {
	f.mu.Lock()
	if f.n == 0 {
		f.mu.Unlock()
		return new(T)
	}
	f.n--
	x := f.items[f.n]
	f.items[f.n] = nil
	f.mu.Unlock()
	return x
}

// Put returns x to the list, dropping it when the list is full.
func (f *FreeList[T]) Put(x *T) {
	f.mu.Lock()
	if f.n < len(f.items) {
		f.items[f.n] = x
		f.n++
	}
	f.mu.Unlock()
}
