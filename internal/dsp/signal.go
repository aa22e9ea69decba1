// Package dsp provides the digital signal processing substrate for the mmX
// simulator: complex-baseband IQ vectors, FFTs, FIR filter design and
// application, Goertzel tone detection, envelope detection, smoothing,
// and additive white Gaussian noise. Everything operates on complex128
// slices at an explicit sample rate; no external DSP library is used.
package dsp

import (
	"math"
	"math/cmplx"

	"mmx/internal/stats"
)

// Power returns the mean power of x: mean(|x|^2).
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s / float64(len(x))
}

// PeakPower returns the maximum instantaneous power max(|x|^2).
func PeakPower(x []complex128) float64 {
	m := 0.0
	for _, v := range x {
		p := real(v)*real(v) + imag(v)*imag(v)
		if p > m {
			m = p
		}
	}
	return m
}

// Scale multiplies every sample by the complex gain g, in place, and
// returns x for chaining.
func Scale(x []complex128, g complex128) []complex128 {
	for i := range x {
		x[i] *= g
	}
	return x
}

// Add sums b into a elementwise (a must be at least as long as b) and
// returns a.
func Add(a, b []complex128) []complex128 {
	for i := range b {
		a[i] += b[i]
	}
	return a
}

// EnvelopeInto writes |x| sample by sample into dst's storage — the output
// of an ideal envelope detector, the first stage of the mmX AP's ASK
// demodulator. dst's backing array is reused when cap(dst) >= len(x); nil
// allocates.
func EnvelopeInto(dst []float64, x []complex128) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = cmplx.Abs(v)
	}
	return dst
}

// AddNoise adds complex AWGN with total noise power noisePower (variance
// split evenly between I and Q) to x in place, drawing from rng.
func AddNoise(x []complex128, noisePower float64, rng *stats.RNG) []complex128 {
	if noisePower <= 0 {
		return x
	}
	sigma := math.Sqrt(noisePower / 2)
	for i := range x {
		x[i] += complex(rng.Normal(0, sigma), rng.Normal(0, sigma))
	}
	return x
}

// MovingAverageInto smooths xs with a centered boxcar of the given width
// (clamped to odd, >= 1) into dst's storage (append semantics); edges use
// the available neighborhood. dst must not alias xs (each output reads a
// neighborhood of inputs).
func MovingAverageInto(dst, xs []float64, width int) []float64 {
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	if cap(dst) < len(xs) {
		dst = make([]float64, len(xs))
	}
	out := dst[:len(xs)]
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		s := 0.0
		for j := lo; j <= hi; j++ {
			s += xs[j]
		}
		out[i] = s / float64(hi-lo+1)
	}
	return out
}
