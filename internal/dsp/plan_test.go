package dsp

import (
	"math"
	"math/cmplx"
	"testing"

	"mmx/internal/stats"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			acc += x[t] * cmplx.Rect(1, sign*2*math.Pi*float64(k*t)/float64(n))
		}
		if inverse {
			acc /= complex(float64(n), 0)
		}
		out[k] = acc
	}
	return out
}

func randComplex(n int, seed uint64) []complex128 {
	rng := stats.NewRNG(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
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

func TestPlanForwardInverseMatchNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 12, 31, 50, 64, 97, 100, 129, 194, 243, 250, 1000} {
		x := randComplex(n, uint64(n))
		p := PlanFFT(n)
		fwd := p.Forward(nil, x)
		inv := p.Inverse(nil, x)
		wantF := naiveDFT(x, false)
		wantI := naiveDFT(x, true)
		for i := 0; i < n; i++ {
			if !cAlmostEq(fwd[i], wantF[i], 1e-8*float64(n)) {
				t.Fatalf("n=%d forward bin %d: %v vs %v", n, i, fwd[i], wantF[i])
			}
			if !cAlmostEq(inv[i], wantI[i], 1e-8) {
				t.Fatalf("n=%d inverse bin %d: %v vs %v", n, i, inv[i], wantI[i])
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
		p := PlanFFT(n)
		allocs := testing.AllocsPerRun(50, func() {
			dst = FFTInto(dst, x)
			dst = p.Inverse(dst, dst)
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs/op on warm FFT path, want 0", n, allocs)
		}
	}
}
