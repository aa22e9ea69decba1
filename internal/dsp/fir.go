package dsp

import "math"

// FIR is a finite-impulse-response filter defined by its real tap weights.
// Apply it to complex IQ data with FilterInto.
type FIR struct {
	Taps []float64
}

// Hamming returns the n-point Hamming window.
func Hamming(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	return math.Sin(math.Pi*x) / (math.Pi * x)
}

// LowPass designs a windowed-sinc low-pass FIR with the given cutoff
// frequency, sample rate, and number of taps (forced odd for a symmetric,
// linear-phase filter). The passband gain is normalized to one.
func LowPass(cutoffHz, sampleRate float64, taps int) *FIR {
	if taps < 3 {
		taps = 3
	}
	if taps%2 == 0 {
		taps++
	}
	fc := cutoffHz / sampleRate // normalized cutoff (cycles/sample)
	mid := taps / 2
	w := Hamming(taps)
	h := make([]float64, taps)
	sum := 0.0
	for i := range h {
		h[i] = 2 * fc * sinc(2*fc*float64(i-mid)) * w[i]
		sum += h[i]
	}
	// Normalize DC gain to exactly 1.
	if sum != 0 {
		for i := range h {
			h[i] /= sum
		}
	}
	return &FIR{Taps: h}
}

// FilterInto convolves x with the filter taps into dst's storage and
// returns the len(x)-long result; the first len(taps)-1 outputs use an
// implicit zero history, matching streaming behaviour. dst follows append
// semantics: its backing array is reused when cap(dst) >= len(x),
// otherwise a new slice is allocated (nil allocates). dst must not alias
// x — the convolution reads x behind the write cursor, and an aliasing
// dst panics.
func (f *FIR) FilterInto(dst, x []complex128) []complex128 {
	if cap(dst) >= len(x) && Aliases(dst, x) {
		panic("dsp: FilterInto dst must not alias x")
	}
	if cap(dst) < len(x) {
		dst = make([]complex128, len(x))
	}
	dst = dst[:len(x)]
	for n := range x {
		var acc complex128
		for k, t := range f.Taps {
			if n-k < 0 {
				break
			}
			acc += x[n-k] * complex(t, 0)
		}
		dst[n] = acc
	}
	return dst
}
