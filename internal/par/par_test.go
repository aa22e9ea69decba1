package par

import (
	"runtime"
	"sync"
	"testing"
)

func TestFor(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 3, 64} {
			lanes := Lanes(workers, n)
			want := workers
			if want <= 0 {
				want = procs
			}
			want = max(1, min(want, n))
			if lanes != want {
				t.Errorf("Lanes(%d, %d) = %d, want %d", workers, n, lanes, want)
			}

			var mu sync.Mutex
			hits := make([]int, n)
			var order []int
			calls := 0
			badLane := -1
			For(workers, n, func(lane, i int) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				hits[i]++
				order = append(order, i)
				if lane < 0 || lane >= lanes || (workers == 1 && lane != 0) {
					badLane = lane
				}
			})
			if calls != n {
				t.Errorf("For(%d, %d): fn called %d times", workers, n, calls)
			}
			for i, h := range hits {
				if h != 1 {
					t.Errorf("For(%d, %d): index %d ran %d times", workers, n, i, h)
				}
			}
			if badLane >= 0 {
				t.Errorf("For(%d, %d): lane %d outside [0, %d)", workers, n, badLane, lanes)
			}
			if workers == 1 {
				for k, i := range order {
					if i != k {
						t.Errorf("For(1, %d): call %d visited index %d", n, k, i)
						break
					}
				}
			}
		}
	}
}

// spans records the ranges a Chunks call hands out.
type spans struct {
	mu   sync.Mutex
	hits []int
	max  int
}

func (s *spans) Range(lo, hi int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := lo; i < hi; i++ {
		s.hits[i]++
	}
	s.max = max(s.max, hi-lo)
}

// TestChunks checks that every index runs exactly once, at every
// GOMAXPROCS the waveform path is tested at: as one range on one P, in
// chunks of at most Grain on more.
func TestChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, Grain, Grain + 1, 3*Grain - 1, 10*Grain + 7} {
			s := &spans{hits: make([]int, n)}
			Chunks(n, s)
			for i, h := range s.hits {
				if h != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, h)
				}
			}
			if procs > 1 && s.max > Grain || procs == 1 && s.max != n {
				t.Errorf("GOMAXPROCS %d, n %d: a chunk of %d indexes", procs, n, s.max)
			}
		}
	}
}

// nested is a task whose chunks run further Chunks calls: one per index
// that holds an inner task.
type nested struct{ inner []*spans }

func (n *nested) Range(lo, hi int) {
	for i := lo; i < hi; i++ {
		if s := n.inner[i]; s != nil {
			Chunks(len(s.hits), s)
		}
	}
}

// TestChunksInsideBusyLanes calls Chunks from every lane of a For that
// keeps all GOMAXPROCS busy, and from inside Chunks itself: no call may
// wait for a lane that never comes, and every index still runs once.
func TestChunksInsideBusyLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	work := make([]*spans, 16)
	for i := range work {
		work[i] = &spans{hits: make([]int, 4*Grain+i)}
	}
	For(0, len(work), func(_, i int) { Chunks(len(work[i].hits), work[i]) })
	outer := &nested{inner: make([]*spans, 3*Grain)}
	for i := 0; i < len(outer.inner); i += Grain / 4 {
		outer.inner[i] = &spans{hits: make([]int, 2*Grain+1)}
	}
	Chunks(len(outer.inner), outer)
	for _, s := range append(work, outer.inner...) {
		if s == nil {
			continue
		}
		for i, h := range s.hits {
			if h != 1 {
				t.Fatalf("index %d of %d ran %d times", i, len(s.hits), h)
			}
		}
	}
}

// TestChunksLaneCap runs 1 000 calls at GOMAXPROCS 4: the goroutine count
// may grow only by the lanes still missing below the cap of 3, however
// many calls there are.
func TestChunksLaneCap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	before, had := runtime.NumGoroutine(), int(lanes.Load())
	s := &sum{xs: make([]float64, 8*Grain)}
	for range 1000 {
		Chunks(len(s.xs), s)
	}
	if n := int(lanes.Load()); n > max(had, 3) {
		t.Errorf("%d lanes after 1000 calls at GOMAXPROCS 4 (%d before)", n, had)
	}
	if grew := runtime.NumGoroutine() - before; grew > max(0, 3-had) {
		t.Errorf("goroutines grew by %d over 1000 calls, lanes missing below the cap: %d", grew, max(0, 3-had))
	}
}

// sum is a task that writes nothing shared: the allocation test's load.
type sum struct{ xs []float64 }

func (s *sum) Range(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.xs[i] = s.xs[i]*0.5 + 1
	}
}

// TestChunksAllocationFree pins a warm Chunks call, handed to the lanes or
// run inline, at zero allocations: the lanes are started once and the
// jobs come off a free list.
func TestChunksAllocationFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, n := range []int{Grain / 2, 6 * Grain} {
		s := &sum{xs: make([]float64, n)}
		Chunks(n, s)
		if allocs := testing.AllocsPerRun(200, func() { Chunks(n, s) }); allocs != 0 {
			t.Errorf("Chunks over %d indexes allocates %v times, want 0", n, allocs)
		}
	}
	var f FreeList[sum]
	f.Put(f.Get())
	if allocs := testing.AllocsPerRun(200, func() { f.Put(f.Get()) }); allocs != 0 {
		t.Errorf("a warm FreeList round trip allocates %v times, want 0", allocs)
	}
}
