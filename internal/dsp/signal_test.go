package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

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

func TestMovingAverage(t *testing.T) {
	xs := []float64{0, 0, 9, 0, 0}
	out := MovingAverageInto(nil, xs, 3)
	want := []float64{0, 3, 3, 3, 0}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("MovingAverage[%d] = %g, want %g", i, out[i], want[i])
		}
	}
	// Even width is promoted to odd; width<1 clamps to 1 (identity).
	id := MovingAverageInto(nil, xs, 0)
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
		out := MovingAverageInto(nil, xs, int(w%9))
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
