package dsp

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mmx/internal/stats"
)

// Each transform has one entry point, its Into form. Handed a dirty
// oversized dst — pooled scratch arrives with arbitrary contents — it must
// return exactly what a fresh nil dst gets, written into dst's backing
// array: overwritten, not accumulated, and not reallocated.

func goldenInput(n int, seed uint64) []complex128 {
	rng := stats.NewRNG(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.StdNormal(), rng.StdNormal())
	}
	return x
}

// checkInto runs into with a nil dst and with a dirty oversized one full
// of garbage, and requires the same result, in the dirty dst's storage.
func checkInto[T complex128 | float64](t *testing.T, name string, garbage T, into func(dst []T) []T) {
	t.Helper()
	want := into(nil)
	buf := make([]T, len(want)+17)
	for i := range buf {
		buf[i] = garbage
	}
	got := into(buf[:0])
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: result with a dirty dst differs from a fresh one", name)
	}
	if len(got) > 0 && &got[0] != &buf[0] {
		t.Errorf("%s: did not reuse dst's backing array", name)
	}
}

var (
	garbageC = complex(math.Inf(1), -1e300)
	garbageF = math.Inf(-1)
)

func TestFilterIntoGolden(t *testing.T) {
	x, long := goldenInput(257, 1), goldenInput(1000, 2)
	direct := LowPass(1e6, 10e6, 31)
	ols := LowPass(0.1, 1, 129) // olsMinTaps or more, on 2×taps or more samples
	checkInto(t, "direct", garbageC, func(d []complex128) []complex128 { return direct.FilterInto(d, x) })
	checkInto(t, "overlap-save", garbageC, func(d []complex128) []complex128 { return ols.FilterInto(d, long) })
}

func TestEnvelopeIntoGolden(t *testing.T) {
	x := goldenInput(123, 4)
	checkInto(t, "EnvelopeInto", garbageF, func(d []float64) []float64 { return EnvelopeInto(d, x) })
}

func TestMovingAverageIntoGolden(t *testing.T) {
	xs := make([]float64, 150)
	for i, v := range goldenInput(len(xs), 6) {
		xs[i] = real(v)
	}
	for _, w := range []int{1, 2, 5, 149, 151} {
		checkInto(t, fmt.Sprintf("width=%d", w), garbageF, func(d []float64) []float64 { return MovingAverageInto(d, xs, w) })
	}
}

func TestFFTIntoGolden(t *testing.T) {
	// 64 exercises the radix-2 path, 60 the mixed-radix path.
	for _, n := range []int{64, 60} {
		x := goldenInput(n, 7)
		checkInto(t, fmt.Sprintf("n=%d", n), garbageC, func(d []complex128) []complex128 { return FFTInto(d, x) })
	}
}

func TestPowerSpectrumIntoGolden(t *testing.T) {
	x := goldenInput(64, 8)
	checkInto(t, "PowerSpectrumInto", garbageF, func(d []float64) []float64 { return PowerSpectrumInto(d, x) })
}
