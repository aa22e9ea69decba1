package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"mmx/internal/stats"
)

func cAlmostEq(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	for _, n := range []int{8, 12, 16, 17} {
		x := make([]complex128, n)
		x[0] = 1
		X := FFTInto(nil, x)
		for i, v := range X {
			if !cAlmostEq(v, 1, 1e-9) {
				t.Errorf("n=%d: FFT(delta)[%d] = %v, want 1", n, i, v)
			}
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A complex exponential at bin k concentrates all energy in bin k.
	for _, n := range []int{16, 64, 15, 100} {
		k := 3
		x := make([]complex128, n)
		for i := range x {
			x[i] = cmplx.Rect(1, 2*math.Pi*float64(k*i)/float64(n))
		}
		X := FFTInto(nil, x)
		for i, v := range X {
			want := complex(0, 0)
			if i == k {
				want = complex(float64(n), 0)
			}
			if !cAlmostEq(v, want, 1e-6*float64(n)) {
				t.Errorf("n=%d bin %d = %v, want %v", n, i, v, want)
			}
		}
	}
}

// TestFFTIFFTRoundtrip inverts the forward transform through the identity
// DFT⁻¹(y) = conj(DFT(conj(y)))/n, so a round trip exercises Forward twice
// at each length and must return the input.
func TestFFTIFFTRoundtrip(t *testing.T) {
	rng := stats.NewRNG(4)
	for _, n := range []int{1, 2, 8, 31, 32, 33, 97, 100, 194, 243, 250, 255, 256, 1000} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(normal(rng), normal(rng))
		}
		p := PlanFFT(n)
		y := p.Forward(nil, x)
		for i, v := range y {
			y[i] = cmplx.Conj(v)
		}
		y = p.Forward(y, y)
		for i := range x {
			got := cmplx.Conj(y[i]) / complex(float64(n), 0)
			if !cAlmostEq(x[i], got, 1e-8) {
				t.Fatalf("n=%d: roundtrip mismatch at %d: %v vs %v", n, i, x[i], got)
			}
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	rng := stats.NewRNG(9)
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 16 + r.Intn(48)
		a := make([]complex128, n)
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			a[i] = complex(normal(rng), normal(rng))
			b[i] = complex(normal(rng), normal(rng))
		}
		alpha := complex(r.Uniform(-2, 2), r.Uniform(-2, 2))
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + alpha*b[i]
		}
		FA, FB, FS := FFTInto(nil, a), FFTInto(nil, b), FFTInto(nil, sum)
		for i := range FS {
			if !cAlmostEq(FS[i], FA[i]+alpha*FB[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Mean power of x equals sum of PowerSpectrum bins.
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := 8 + r.Intn(120)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(normal(r), normal(r))
		}
		spec := PowerSpectrumInto(nil, x)
		sum := 0.0
		for _, p := range spec {
			sum += p
		}
		return math.Abs(sum-Power(x)) < 1e-8*(1+Power(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTFreqs(t *testing.T) {
	fs := FFTFreqs(8, 8000)
	want := []float64{0, 1000, 2000, 3000, 4000, -3000, -2000, -1000}
	for i := range want {
		if math.Abs(fs[i]-want[i]) > 1e-9 {
			t.Errorf("FFTFreqs[%d] = %g, want %g", i, fs[i], want[i])
		}
	}
	fs5 := FFTFreqs(5, 5000)
	want5 := []float64{0, 1000, 2000, -2000, -1000}
	for i := range want5 {
		if math.Abs(fs5[i]-want5[i]) > 1e-9 {
			t.Errorf("FFTFreqs5[%d] = %g, want %g", i, fs5[i], want5[i])
		}
	}
}

func TestDominantFrequency(t *testing.T) {
	fs := 1e6
	for _, f := range []float64{0, 125e3, -250e3, 31.25e3} {
		x := tone(256, f, 1, 0, fs)
		got := dominantFrequency(x, fs)
		if math.Abs(got-f) > fs/256+1 {
			t.Errorf("strongest bin of a %g Hz tone at %g Hz", f, got)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if FFTInto(nil, nil) != nil {
		t.Error("FFTInto(nil) of empty input should be nil")
	}
	if got := FFTInto(make([]complex128, 4), nil); len(got) != 0 {
		t.Errorf("FFTInto of empty input has length %d", len(got))
	}
}

func TestSTFT(t *testing.T) {
	fs := 1e6
	// First half at +100 kHz, second half at -200 kHz.
	x := append(tone(2048, 100e3, 1, 0, fs), tone(2048, -200e3, 1, 0, fs)...)
	rows := STFT(x, 256, 128)
	if len(rows) != (4096-256)/128+1 {
		t.Fatalf("rows = %d", len(rows))
	}
	freqs := FFTFreqs(256, fs)
	peakFreq := func(row []float64) float64 { return freqs[argMax(row)] }
	// Early frames peak near +100 kHz; late frames near −200 kHz.
	if f := peakFreq(rows[0]); math.Abs(f-100e3) > fs/256+1 {
		t.Errorf("early peak = %g", f)
	}
	if f := peakFreq(rows[len(rows)-1]); math.Abs(f+200e3) > fs/256+1 {
		t.Errorf("late peak = %g", f)
	}
	if STFT(x[:100], 256, 128) != nil {
		t.Error("short input should be nil")
	}
	if STFT(x, 1, 128) != nil || STFT(x, 256, 0) != nil {
		t.Error("degenerate params should be nil")
	}
}
