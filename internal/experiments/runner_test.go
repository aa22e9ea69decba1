package experiments

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mmx/internal/stats"
)

// withWorkers runs fn with the fan-out width pinned (RunTrials is
// GOMAXPROCS wide), restoring it after.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestRunTrialsOrderAndSeeding(t *testing.T) {
	got := RunTrials(42, 100, func(trial int, rng *stats.RNG) [2]float64 {
		return [2]float64{float64(trial), rng.Uniform(0, 1)}
	})
	if len(got) != 100 {
		t.Fatalf("len = %d", len(got))
	}
	for i, g := range got {
		if g[0] != float64(i) {
			t.Fatalf("result %d carries trial index %.0f", i, g[0])
		}
		if want := TrialRNG(42, i).Uniform(0, 1); g[1] != want {
			t.Errorf("trial %d drew %v, TrialRNG(42,%d) gives %v", i, g[1], i, want)
		}
	}
}

func TestRunTrialsSerialParallelIdentical(t *testing.T) {
	run := func() []float64 {
		return RunTrials(7, 257, func(trial int, rng *stats.RNG) float64 {
			v := 0.0
			for k := 0; k < 10+trial%13; k++ { // uneven per-trial work
				v += rng.Normal(0, 1)
			}
			return v
		})
	}
	var serial, parallel []float64
	withWorkers(t, 1, func() { serial = run() })
	withWorkers(t, 8, func() { parallel = run() })
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel RunTrials diverged from serial run")
	}
}

func TestRunTrialsEdgeCases(t *testing.T) {
	if got := RunTrials(1, 0, func(int, *stats.RNG) int { return 1 }); got != nil {
		t.Errorf("n=0 returned %v", got)
	}
	got := RunTrials(1, 1, func(trial int, _ *stats.RNG) int { return trial })
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("n=1 returned %v", got)
	}
}

func TestTrialRNGStreamsIndependent(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		v := TrialRNG(99, i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("trials %d and %d opened with the same draw", j, i)
		}
		seen[v] = i
	}
}

// TestFigSerialParallelIdentical pins the figure-level reproducibility
// contract: the ported experiments return deep-equal results at any worker
// count (the shared environment is read-only during evaluation).
func TestFigSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var s11, p11 Fig11Result
	var s10, p10 Fig10Result
	withWorkers(t, 1, func() {
		s11 = Fig11(5, 40)
		s10 = Fig10(5, 0.75)
	})
	withWorkers(t, 8, func() {
		p11 = Fig11(5, 40)
		p10 = Fig10(5, 0.75)
	})
	if !reflect.DeepEqual(s11, p11) {
		t.Error("Fig11 parallel run diverged from serial")
	}
	if !reflect.DeepEqual(s10, p10) {
		t.Error("Fig10 parallel run diverged from serial")
	}
}

// TestRunTrialsConcurrentCallers exercises the runner from several
// goroutines at once (as nested experiments do) — meaningful mainly under
// -race.
func TestRunTrialsConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			RunTrials(uint64(g), 50, func(trial int, rng *stats.RNG) float64 {
				return rng.Uniform(0, 1)
			})
		}(g)
	}
	wg.Wait()
}
