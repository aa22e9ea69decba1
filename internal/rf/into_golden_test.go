package rf

import (
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"mmx/internal/stats"
)

// noisyCapture returns n complex samples at σ = 2, so a good share of them
// lie past the ADC's full scale.
func noisyCapture(n int, seed uint64) []complex128 {
	rng := stats.NewRNG(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(2*rng.StdNormal(), 2*rng.StdNormal())
	}
	return x
}

// The ADC's one entry point quantizes in place: it must write every code
// into the capture's own storage, each I and Q value rounded and clipped
// by Quantize on its own.
func TestQuantizeIQVariantsGolden(t *testing.T) {
	a := NewUSRPN210()
	x := noisyCapture(128, 21)
	want := make([]complex128, len(x))
	for i, v := range x {
		want[i] = complex(a.Quantize(real(v)), a.Quantize(imag(v)))
	}
	got := a.QuantizeIQInPlace(x)
	if &got[0] != &x[0] {
		t.Error("QuantizeIQInPlace did not quantize in place")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("QuantizeIQInPlace differs from per-sample Quantize")
	}
}

// ApplyPhaseNoise must draw exactly len(x) samples from the RNG and match
// the manual Wiener-walk rotation sample by sample, in place.
func TestApplyPhaseNoiseDrawCount(t *testing.T) {
	const fs = 25e6
	v := NewHMC533()
	x := noisyCapture(64, 7)
	want := make([]complex128, len(x))
	rng := stats.NewRNG(7)
	sigma := math.Sqrt(2 * math.Pi * LinewidthHz / fs)
	phase := 0.0
	for i, s := range x {
		phase += rng.Normal(0, sigma)
		want[i] = s * cmplx.Rect(1, phase)
	}
	v.ApplyPhaseNoise(x, fs, stats.NewRNG(7))
	if !reflect.DeepEqual(x, want) {
		t.Error("ApplyPhaseNoise differs from the manual Wiener-walk rotation")
	}

	// An RNG seeded identically and stepped len(x) times lands in the same
	// state as one used by ApplyPhaseNoise.
	a, b := stats.NewRNG(7), stats.NewRNG(7)
	v.ApplyPhaseNoise(make([]complex128, 64), fs, a)
	for i := 0; i < 64; i++ {
		b.StdNormal()
	}
	if a.Uint64() != b.Uint64() {
		t.Error("ApplyPhaseNoise consumed a different number of RNG draws than len(x)")
	}
}
