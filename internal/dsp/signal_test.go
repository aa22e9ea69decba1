package dsp

import (
	"math"
	"math/cmplx"
	"runtime"
	"testing"
	"testing/quick"

	"mmx/internal/par"
	"mmx/internal/stats"
)

// tone synthesizes n samples of a complex exponential at freqHz with the
// given amplitude, initial phase (radians) and sample rate.
func tone(n int, freqHz, amplitude, phase, sampleRate float64) []complex128 {
	out := make([]complex128, n)
	w := 2 * math.Pi * freqHz / sampleRate
	for i := range out {
		out[i] = cmplx.Rect(amplitude, phase+w*float64(i))
	}
	return out
}

// argMax returns the index of the first largest element of xs.
func argMax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// dominantFrequency returns the signed frequency of the strongest bin of
// x's power spectrum.
func dominantFrequency(x []complex128, sampleRate float64) float64 {
	return FFTFreqs(len(x), sampleRate)[argMax(PowerSpectrumInto(nil, x))]
}

func TestTonePowerAndFrequency(t *testing.T) {
	fs := 1e6
	x := tone(4096, 100e3, 2, 0.3, fs)
	if p := Power(x); math.Abs(p-4) > 1e-9 {
		t.Errorf("tone power = %g, want 4", p)
	}
	if got := dominantFrequency(x, fs); math.Abs(got-100e3) > fs/4096+1 {
		t.Errorf("tone frequency = %g", got)
	}
}

func TestPowerPeakScale(t *testing.T) {
	x := []complex128{1, 2i, complex(0, 0)}
	if p := Power(x); math.Abs(p-(1+4)/3.0) > 1e-12 {
		t.Errorf("Power = %g", p)
	}
	if p := PeakPower(x); p != 4 {
		t.Errorf("PeakPower = %g", p)
	}
	Scale(x, 2)
	if p := PeakPower(x); p != 16 {
		t.Errorf("PeakPower after Scale = %g", p)
	}
	if Power(nil) != 0 {
		t.Error("Power(nil) should be 0")
	}
}

func TestEnvelope(t *testing.T) {
	x := []complex128{complex(3, 4), complex(0, -2)}
	e := EnvelopeInto(nil, x)
	if e[0] != 5 || e[1] != 2 {
		t.Errorf("Envelope = %v", e)
	}
}

func TestAddNoisePower(t *testing.T) {
	rng := stats.NewRNG(12)
	x := make([]complex128, 100000)
	AddNoise(x, 0.25, rng)
	if p := Power(x); math.Abs(p-0.25) > 0.01 {
		t.Errorf("noise power = %g, want 0.25", p)
	}
	// Zero power is a no-op.
	y := []complex128{1 + 1i}
	AddNoise(y, 0, rng)
	if y[0] != 1+1i {
		t.Error("AddNoise(0) modified the signal")
	}
}

// normal draws one standard deviate.
func normal(rng *stats.RNG) float64 {
	var z [1]float64
	rng.StdNormals(z[:])
	return z[0]
}

// movingAverage smooths xs whole into a fresh slice.
func movingAverage(xs []float64, width int) []float64 {
	out := make([]float64, len(xs))
	MovingAverageSpan(out, xs, width, 0, len(xs))
	return out
}

func TestMovingAverage(t *testing.T) {
	xs := []float64{0, 0, 9, 0, 0}
	out := movingAverage(xs, 3)
	want := []float64{0, 3, 3, 3, 0}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("MovingAverage[%d] = %g, want %g", i, out[i], want[i])
		}
	}
	// Even width is promoted to odd; width<1 clamps to 1 (identity).
	id := movingAverage(xs, 0)
	for i := range xs {
		if id[i] != xs[i] {
			t.Error("width<1 should be identity")
		}
	}
}

func TestMovingAverageConservesMeanProperty(t *testing.T) {
	// A centered boxcar preserves a constant signal exactly.
	f := func(v int8, w uint8) bool {
		val := float64(v)
		xs := make([]float64, 40)
		for i := range xs {
			xs[i] = val
		}
		out := movingAverage(xs, int(w%9))
		for _, o := range out {
			if math.Abs(o-val) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddRealToComplex(t *testing.T) {
	a := []complex128{1, 2}
	Add(a, []complex128{10, 20})
	if a[0] != 11 || a[1] != 22 {
		t.Errorf("Add = %v", a)
	}
	// A real signal carried as IQ adds into the in-phase rail only.
	c := []complex128{complex(1, 5)}
	Add(c, []complex128{complex(3, 0)})
	if c[0] != complex(4, 5) {
		t.Errorf("Add of a real signal = %v", c[0])
	}
}

// serialAddNoise is AddNoise as it was before the batch draws: two
// deviates drawn one at a time per sample. Its products are rounded as the kernel rounds
// them; amd64 never fuses, so there it is the old code's every bit.
func serialAddNoise(x []complex128, noisePower float64, rng *stats.RNG) {
	sigma := math.Sqrt(noisePower / 2)
	for i := range x {
		re := 0 + float64(sigma*normal(rng))
		x[i] += complex(re, 0+float64(sigma*normal(rng)))
	}
}

// TestAddNoiseMatchesSerialDraws holds every noisy sample to the serial
// draws bit for bit, and the RNG's state after the call to the serial
// one's: lengths 0 and 1 among short and lane-split captures, with and
// without a cached deviate carried in, at GOMAXPROCS 1, 2 and 8.
func TestAddNoiseMatchesSerialDraws(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 3*par.Grain + 5} {
			for _, carry := range []bool{false, true} {
				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(float64(i), -float64(i))
				}
				want := append([]complex128(nil), x...)
				rng, oracle := stats.NewRNG(uint64(n)), stats.NewRNG(uint64(n))
				if carry {
					normal(rng)
					normal(oracle)
				}
				AddNoise(x, 0.3, rng)
				serialAddNoise(want, 0.3, oracle)
				for i := range x {
					if math.Float64bits(real(x[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(x[i])) != math.Float64bits(imag(want[i])) {
						t.Fatalf("GOMAXPROCS %d, n %d, carry %v: sample %d = %v, serial %v", procs, n, carry, i, x[i], want[i])
					}
				}
				if *rng != *oracle {
					t.Fatalf("GOMAXPROCS %d, n %d, carry %v: RNG state differs from the serial draws'", procs, n, carry)
				}
			}
		}
	}
}
