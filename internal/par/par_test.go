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
