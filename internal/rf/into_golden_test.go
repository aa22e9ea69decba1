package rf

import (
	"math"
	"math/cmplx"
	"reflect"
	"runtime"
	"testing"

	"mmx/internal/par"
	"mmx/internal/stats"
)

// noisyCapture returns n complex samples at σ = 2, so a good share of them
// lie past the ADC's full scale.
func noisyCapture(n int, seed uint64) []complex128 {
	z := make([]float64, 2*n)
	stats.NewRNG(seed).StdNormals(z)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(2*z[2*i], 2*z[2*i+1])
	}
	return x
}

// normal draws one standard deviate.
func normal(rng *stats.RNG) float64 {
	var z [1]float64
	rng.StdNormals(z[:])
	return z[0]
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
		phase += 0 + sigma*normal(rng)
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
		normal(b)
	}
	if a.Uint64() != b.Uint64() {
		t.Error("ApplyPhaseNoise consumed a different number of RNG draws than len(x)")
	}
}

// serialPhaseNoise is ApplyPhaseNoise as it was before the batch draws:
// one deviate per sample and the walk and rotation in one loop. Its
// products are rounded as the kernel rounds them; amd64 never fuses, so
// there it is the old code's every bit.
func serialPhaseNoise(x []complex128, fs float64, rng *stats.RNG) {
	sigma := math.Sqrt(2 * math.Pi * LinewidthHz / fs)
	phase := 0.0
	for i := range x {
		phase += 0 + float64(sigma*normal(rng))
		s, c := math.Sincos(phase)
		a, b := real(x[i]), imag(x[i])
		x[i] = complex(float64(a*c)-float64(b*s), float64(a*s)+float64(b*c))
	}
}

// TestApplyPhaseNoiseMatchesSerialWalk holds every rotated sample to the
// serial walk bit for bit, and the RNG's state after the call to the
// serial one's: odd and even lengths, 0 and 1 among them, with and
// without a cached deviate carried in, at GOMAXPROCS 1, 2 and 8.
func TestApplyPhaseNoiseMatchesSerialWalk(t *testing.T) {
	const fs = 25e6
	v := NewHMC533()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 3*par.Grain + 5, 4 * par.Grain} {
			for _, carry := range []bool{false, true} {
				x := noisyCapture(n, uint64(n))
				want := append([]complex128(nil), x...)
				rng, oracle := stats.NewRNG(uint64(procs)), stats.NewRNG(uint64(procs))
				if carry {
					normal(rng)
					normal(oracle)
				}
				v.ApplyPhaseNoise(x, fs, rng)
				serialPhaseNoise(want, fs, oracle)
				for i := range x {
					if math.Float64bits(real(x[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(x[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("GOMAXPROCS %d, n %d, carry %v: sample %d = %v, serial %v", procs, n, carry, i, x[i], want[i])
					}
				}
				if *rng != *oracle {
					t.Fatalf("GOMAXPROCS %d, n %d, carry %v: RNG state differs from the serial walk's", procs, n, carry)
				}
			}
		}
	}
}
