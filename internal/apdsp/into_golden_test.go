package apdsp

import (
	"fmt"
	"reflect"
	"testing"

	"mmx/internal/stats"
	"mmx/internal/tma"
)

// Each transform of the wideband chain has one entry point, its Into
// form. Handed a dirty oversized dst — pooled scratch arrives with
// arbitrary contents — it must return exactly what a fresh nil dst gets,
// written into dst's backing array: overwritten, not accumulated, and not
// reallocated.

func noiseBurst(n int, seed uint64) []complex128 {
	rng := stats.NewRNG(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.StdNormal(), rng.StdNormal())
	}
	return x
}

// checkInto runs into with a nil dst and with a dirty oversized one, and
// requires the same result, in the dirty dst's storage.
func checkInto(t *testing.T, name string, into func(dst []complex128) []complex128) {
	t.Helper()
	want := into(nil)
	buf := make([]complex128, len(want)+9)
	for i := range buf {
		buf[i] = complex(1e300, -1e300)
	}
	got := into(buf[:0])
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: result with a dirty dst differs from a fresh one", name)
	}
	if len(got) > 0 && &got[0] != &buf[0] {
		t.Errorf("%s: did not reuse dst's backing array", name)
	}
}

func TestChannelizerExtractIntoGolden(t *testing.T) {
	c := NewChannelizer(200e6, 60e9)
	x := noiseBurst(4096, 11)
	checkInto(t, "ExtractInto", func(d []complex128) []complex128 {
		out, err := c.ExtractInto(d, x, 60.01e9, 10e6, 25e6)
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
}

func TestSDMSeparatorShiftAndMixGolden(t *testing.T) {
	const rate = 200e6
	arr := tma.NewSDMArray(8, 100e3)
	mixed := arr.MixInto(nil, []tma.Source{
		{Theta: 0.3, Baseband: noiseBurst(512, 12)},
		{Theta: -0.7, Baseband: noiseBurst(512, 13)},
	}, rate)
	// Harmonic 0 copies: into dst, never handing back its input.
	for _, h := range []int{0, 1, 3} {
		checkInto(t, fmt.Sprintf("harmonicShiftInto(harmonic=%d)", h), func(d []complex128) []complex128 {
			return harmonicShiftInto(d, mixed, arr, h, rate)
		})
	}
}

func TestTMAMixExtractIntoGolden(t *testing.T) {
	arr := tma.NewSDMArray(8, 100e3)
	srcs := []tma.Source{
		{Theta: 0.2, Baseband: noiseBurst(300, 14)},
		{Theta: -0.5, Baseband: noiseBurst(300, 15)},
	}
	const fs = 200e6
	checkInto(t, "MixInto", func(d []complex128) []complex128 { return arr.MixInto(d, srcs, fs) })
	mixed := arr.MixInto(nil, srcs, fs)
	for _, m := range []int{1, 2} {
		checkInto(t, fmt.Sprintf("ExtractInto(m=%d)", m), func(d []complex128) []complex128 {
			return arr.ExtractInto(d, mixed, m, fs)
		})
	}
}
