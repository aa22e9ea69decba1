// Package dsp provides the digital signal processing substrate for the mmX
// simulator: complex-baseband IQ vectors, FFTs, FIR filter design and
// application, Goertzel tone detection, envelope detection, smoothing,
// and additive white Gaussian noise. Everything operates on complex128
// slices at an explicit sample rate; no external DSP library is used.
package dsp

import (
	"math"
	"math/cmplx"

	"mmx/internal/dsp/pool"
	"mmx/internal/stats"
)

// Mul is a·b in the order Go's complex product computes it, with each
// real product rounded by a conversion so that no architecture fuses it
// into the sum that follows.
func Mul(a, b complex128) complex128 {
	return complex(float64(real(a)*real(b))-float64(imag(a)*imag(b)),
		float64(real(a)*imag(b))+float64(imag(a)*real(b)))
}

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
// split evenly between I and Q) to x in place, drawing from rng: the real
// part of sample i takes draw 2i, the imaginary part draw 2i+1. The draws
// come in one batch (RNG.StdNormals) into pooled scratch.
func AddNoise(x []complex128, noisePower float64, rng *stats.RNG) []complex128 {
	if noisePower <= 0 {
		return x
	}
	sigma := math.Sqrt(noisePower / 2)
	z := pool.Float64(2 * len(x))
	rng.StdNormals(z)
	for i := range x {
		x[i] += complex(0+float64(sigma*z[2*i]), 0+float64(sigma*z[2*i+1]))
	}
	pool.PutFloat64(z)
	return x
}

// MovingAverageSpan writes outputs lo..hi−1 of xs smoothed by a centered
// boxcar of the given width (clamped to odd, >= 1) into out[lo:hi]; edges
// use the available neighborhood. Each output is its own sum, so disjoint
// spans may run concurrently and a series smoothed in pieces equals one
// smoothed whole. out must hold len(xs) and must not alias xs (each
// output reads a neighborhood of inputs).
func MovingAverageSpan(out, xs []float64, width, lo, hi int) {
	if width < 1 {
		width = 1
	}
	if width%2 == 0 {
		width++
	}
	half := width / 2
	for i := lo; i < hi; i++ {
		a := max(i-half, 0)
		b := min(i+half, len(xs)-1)
		s := 0.0
		for j := a; j <= b; j++ {
			s += xs[j]
		}
		out[i] = s / float64(b-a+1)
	}
}
