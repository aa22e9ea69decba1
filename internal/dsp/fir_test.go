package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"mmx/internal/stats"
)

// gainAt evaluates a filter's amplitude response |H(f)| at freqHz.
func gainAt(f *FIR, freqHz, sampleRate float64) float64 {
	w := 2 * math.Pi * freqHz / sampleRate
	var re, im float64
	for k, t := range f.Taps {
		re += t * math.Cos(w*float64(k))
		im -= t * math.Sin(w*float64(k))
	}
	return math.Hypot(re, im)
}

func TestLowPassResponse(t *testing.T) {
	fs := 1e6
	f := LowPass(100e3, fs, 101)
	// Unity gain at DC (normalized).
	if g := gainAt(f, 0, fs); math.Abs(g-1) > 1e-9 {
		t.Errorf("DC gain = %g", g)
	}
	// Passband: small ripple.
	if g := gainAt(f, 50e3, fs); math.Abs(g-1) > 0.05 {
		t.Errorf("passband gain at 50 kHz = %g", g)
	}
	// Stopband: strong attenuation well past cutoff.
	if g := gainAt(f, 250e3, fs); g > 0.01 {
		t.Errorf("stopband gain at 250 kHz = %g", g)
	}
	if len(f.Taps)%2 != 1 {
		t.Error("taps should be odd")
	}
}

func TestLowPassTapsClamp(t *testing.T) {
	f := LowPass(1e3, 1e6, 0)
	if len(f.Taps) < 3 {
		t.Errorf("taps = %d", len(f.Taps))
	}
	f2 := LowPass(1e3, 1e6, 10)
	if len(f2.Taps) != 11 {
		t.Errorf("even taps should be promoted to 11, got %d", len(f2.Taps))
	}
}

func TestFilterRemovesOutOfBandTone(t *testing.T) {
	fs := 1e6
	lp := LowPass(100e3, fs, 129)
	inBand := tone(4096, 50e3, 1, 0, fs)
	outBand := tone(4096, 300e3, 1, 0, fs)
	mix := make([]complex128, len(inBand))
	for i := range mix {
		mix[i] = inBand[i] + outBand[i]
	}
	y := lp.FilterInto(nil, mix)
	// Skip the transient, then the output should be dominated by the
	// in-band tone: power ≈ 1, dominant frequency ≈ 50 kHz.
	settled := y[256:]
	if p := Power(settled); math.Abs(p-1) > 0.1 {
		t.Errorf("filtered power = %g, want ≈1", p)
	}
	if got := dominantFrequency(settled, fs); math.Abs(got-50e3) > 1e3 {
		t.Errorf("dominant freq after LPF = %g", got)
	}
}

func TestFilterLinearityProperty(t *testing.T) {
	fs := 1e6
	lp := LowPass(100e3, fs, 31)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 64
		a := make([]complex128, n)
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(normal(r), normal(r))
			b[i] = complex(normal(r), normal(r))
		}
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		ya, yb, ys := lp.FilterInto(nil, a), lp.FilterInto(nil, b), lp.FilterInto(nil, sum)
		for i := range ys {
			d := ys[i] - ya[i] - yb[i]
			if math.Hypot(real(d), imag(d)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// A real signal filtered as IQ stays real, and its in-phase rail is the
// real convolution with the taps.
func TestFilterRealMatchesComplex(t *testing.T) {
	lp := LowPass(0.1e6, 1e6, 21)
	xs := []float64{1, -2, 3, 0, 0, 5, 4, 4, 2, 2, 1, 0, 0, 0, 1, 9, 8, 1, 1, 1, 0, 0, 2}
	x := make([]complex128, len(xs))
	for i, v := range xs {
		x[i] = complex(v, 0)
	}
	yc := lp.FilterInto(nil, x)
	for n := range xs {
		want := 0.0
		for k, tap := range lp.Taps {
			if n-k < 0 {
				break
			}
			want += xs[n-k] * tap
		}
		if math.Abs(real(yc[n])-want) > 1e-12 || math.Abs(imag(yc[n])) > 1e-12 {
			t.Fatalf("real/complex filter mismatch at %d", n)
		}
	}
}

// LowPass designs are linear-phase: the taps are symmetric about the
// centre tap, so every frequency is delayed by (N−1)/2 samples and an
// impulse comes out peaking there.
func TestGroupDelay(t *testing.T) {
	f := LowPass(1e3, 1e6, 41)
	n := len(f.Taps)
	for i := 0; i < n/2; i++ {
		if math.Abs(f.Taps[i]-f.Taps[n-1-i]) > 1e-15 {
			t.Fatalf("taps %d and %d differ: %g vs %g", i, n-1-i, f.Taps[i], f.Taps[n-1-i])
		}
	}
	impulse := make([]complex128, 2*n)
	impulse[0] = 1
	if gd := argMax(EnvelopeInto(nil, f.FilterInto(nil, impulse))); gd != 20 {
		t.Errorf("impulse response peaks at %d, want group delay 20", gd)
	}
}

func TestWindows(t *testing.T) {
	h := Hamming(11)
	if math.Abs(h[0]-0.08) > 1e-9 || math.Abs(h[10]-0.08) > 1e-9 {
		t.Errorf("Hamming edges = %g, %g", h[0], h[10])
	}
	if math.Abs(h[5]-1) > 1e-9 {
		t.Errorf("Hamming center = %g", h[5])
	}
	if Hamming(1)[0] != 1 {
		t.Error("single-point window should be 1")
	}
}

func TestGoertzelPureTone(t *testing.T) {
	fs := 1e6
	block := tone(1000, 125e3, 2, 0.7, fs)
	g := NewGoertzel(125e3, fs)
	if p := g.Power(block); math.Abs(p-4) > 1e-6 {
		t.Errorf("Goertzel power of matched tone = %g, want 4", p)
	}
	// Probe far from the tone sees almost nothing.
	gOff := NewGoertzel(300e3, fs)
	if p := gOff.Power(block); p > 0.01 {
		t.Errorf("Goertzel off-tone power = %g", p)
	}
	if g.Power(nil) != 0 {
		t.Error("empty block should be 0")
	}
}

func TestToneDiscriminator(t *testing.T) {
	fs := 1e6
	f0, f1 := -100e3, 100e3
	d := NewToneDiscriminator(f0, f1, fs)
	b0 := tone(500, f0, 1, 0, fs)
	b1 := tone(500, f1, 1, 0, fs)
	if bit, p0, p1 := d.Decide(b0); bit || p0 < p1 {
		t.Errorf("tone 0 misdecided: p0=%g p1=%g", p0, p1)
	}
	if bit, p0, p1 := d.Decide(b1); !bit || p1 < p0 {
		t.Errorf("tone 1 misdecided: p0=%g p1=%g", p0, p1)
	}
}

func TestToneDiscriminatorNoisy(t *testing.T) {
	fs := 1e6
	rng := stats.NewRNG(31)
	d := NewToneDiscriminator(-100e3, 100e3, fs)
	errs := 0
	trials := 200
	for i := 0; i < trials; i++ {
		bit := rng.Uint64()&1 == 1
		f := -100e3
		if bit {
			f = 100e3
		}
		block := tone(64, f, 1, rng.Uniform(0, 2*math.Pi), fs)
		AddNoise(block, 0.5, rng) // 3 dB SNR per sample, 64x processing gain
		got, _, _ := d.Decide(block)
		if got != bit {
			errs++
		}
	}
	if errs > 2 {
		t.Errorf("FSK discriminator errors = %d/%d at high post-integration SNR", errs, trials)
	}
}

func TestFilterIntoRejectsAliasedDst(t *testing.T) {
	lp := LowPass(0.1, 1, 31)
	arr := make([]complex128, 600)
	x := arr[:256]
	// dst = x itself, and a capacity-sufficient window offset into x's
	// backing array. (An aliasing dst with cap < len(x) is reallocated,
	// not reused, so it cannot corrupt and is not rejected.)
	for _, alias := range [][]complex128{x, arr[100:100:600]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("aliasing dst must panic")
				}
			}()
			lp.FilterInto(alias, x)
		}()
	}
	// Disjoint halves of one array do not alias.
	backing := make([]complex128, 512)
	lp.FilterInto(backing[:0:256], backing[256:])
}
