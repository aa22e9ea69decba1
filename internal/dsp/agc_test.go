package dsp

import (
	"math"
	"reflect"
	"testing"

	"mmx/internal/stats"
)

// The receive chain's AGC stage is NormalizeRMS: one gain per buffered
// capture, the slow-rate limit of a feedback loop.

func TestAGCConvergesToTarget(t *testing.T) {
	x := tone(40000, 10e3, 3.7e-5, 0, 1e6)
	NormalizeRMS(x, 0.5)
	// A tone's envelope is flat, so the whole capture sits at the target.
	for i, e := range EnvelopeInto(nil, x) {
		if math.Abs(e-0.5) > 1e-9 {
			t.Fatalf("envelope[%d] = %g, want 0.5", i, e)
		}
	}
}

func TestAGCPreservesASKAtSlowRate(t *testing.T) {
	// The AGC must NOT flatten symbol-rate amplitude modulation: the
	// high/low level ratio survives.
	fs, spb := 25e6, 25
	var x []complex128
	for s := 0; s < 400; s++ {
		amp := 1e-5
		if s%2 == 0 {
			amp = 1e-4
		}
		x = append(x, tone(spb, 250e3, amp, 0, fs)...)
	}
	NormalizeRMS(x, 0.4)
	env := EnvelopeInto(nil, x)
	if ratio := env[396*spb+spb/2] / env[397*spb+spb/2]; math.Abs(ratio-10) > 1e-9 {
		t.Errorf("ASK depth changed: hi/lo = %.6f, want 10", ratio)
	}
}

func TestAGCGainBounds(t *testing.T) {
	// Silence does not drive the gain to infinity: the capture is left
	// alone.
	silent := make([]complex128, 10000)
	if g := NormalizeRMS(silent, 1); g != 1 || Power(silent) != 0 {
		t.Errorf("silence: gain %g, power %g", g, Power(silent))
	}
	// Huge and tiny inputs get finite gains that land on the target.
	for _, amp := range []float64{1e9, 1e-12} {
		x := tone(10000, 0, amp, 0, 1e6)
		g := NormalizeRMS(x, 1)
		if math.IsInf(g, 0) || g <= 0 || math.Abs(math.Sqrt(Power(x))-1) > 1e-9 {
			t.Errorf("amplitude %g: gain %g, RMS %g", amp, g, math.Sqrt(Power(x)))
		}
	}
}

func TestAGCProcessVariantsGolden(t *testing.T) {
	// The AGC's one entry point works in place: it scales x's own storage,
	// and the result is x scaled by the gain it returns.
	x := goldenInput(200, 9)
	want := append([]complex128(nil), x...)
	g := NormalizeRMS(x, 1.0)
	Scale(want, complex(g, 0))
	if !reflect.DeepEqual(x, want) {
		t.Error("NormalizeRMS differs from scaling by its returned gain")
	}
}

func TestNormalizeRMS(t *testing.T) {
	rng := stats.NewRNG(4)
	x := make([]complex128, 5000)
	AddNoise(x, 1e-10, rng)
	g := NormalizeRMS(x, 0.25)
	if g <= 0 {
		t.Fatal("gain")
	}
	if rms := math.Sqrt(Power(x)); math.Abs(rms-0.25) > 1e-9 {
		t.Errorf("RMS = %g, want 0.25", rms)
	}
	// Degenerate inputs are no-ops.
	if NormalizeRMS(make([]complex128, 4), 0.5) != 1 {
		t.Error("silent input should be untouched")
	}
	if NormalizeRMS(x, 0) != 1 {
		t.Error("zero target should be untouched")
	}
}
