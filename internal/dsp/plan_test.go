package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"mmx/internal/stats"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			acc += x[t] * cmplx.Rect(1, -2*math.Pi*float64(k*t)/float64(n))
		}
		out[k] = acc
	}
	return out
}

func randComplex(n int, seed uint64) []complex128 {
	rng := stats.NewRNG(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(normal(rng), normal(rng))
	}
	return x
}

func TestPlanFFTCacheReturnsSharedPlan(t *testing.T) {
	for _, n := range []int{8, 12, 50, 64, 100} {
		if PlanFFT(n) != PlanFFT(n) {
			t.Errorf("n=%d: PlanFFT returned distinct plans for one size", n)
		}
		if got := PlanFFT(n).Len(); got != n {
			t.Errorf("Len = %d, want %d", got, n)
		}
	}
}

// TestPlanForwardMatchesNaiveDFT covers the radix-2 path, radix-2 and
// radix-5 stages, and the generic odd-prime butterfly (3, 31, 97, …).
func TestPlanForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 12, 31, 32, 33, 50, 64, 97, 100, 129, 194, 243, 250, 255, 256, 1000} {
		x := randComplex(n, uint64(n))
		got := PlanFFT(n).Forward(nil, x)
		want := naiveDFT(x)
		for i := 0; i < n; i++ {
			if !cAlmostEq(got[i], want[i], 1e-8*float64(n)) {
				t.Fatalf("n=%d bin %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestPlanInPlaceMatchesOutOfPlace(t *testing.T) {
	for _, n := range []int{16, 50, 250} {
		x := randComplex(n, 7)
		p := PlanFFT(n)
		want := p.Forward(nil, x)
		got := append([]complex128(nil), x...)
		got = p.Forward(got, got)
		for i := range want {
			if !cAlmostEq(got[i], want[i], 1e-9) {
				t.Fatalf("n=%d: in-place mismatch at %d", n, i)
			}
		}
	}
}

func TestPlanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	PlanFFT(8).Forward(nil, make([]complex128, 9))
}

// TestFFTWarmPathAllocationFree pins the plan-cache + pooled-scratch
// contract: once the plan exists and dst is sized, repeated transforms —
// including non-power-of-two mixed-radix lengths, whose work buffers come
// from the buffer pool — allocate nothing.
func TestFFTWarmPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, n := range []int{64, 50, 100, 250} {
		x := randComplex(n, uint64(n))
		dst := make([]complex128, n)
		FFTInto(dst, x) // warm plan, pool, and dst
		allocs := testing.AllocsPerRun(50, func() {
			dst = FFTInto(dst, x)
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs/op on warm FFT path, want 0", n, allocs)
		}
	}
}
