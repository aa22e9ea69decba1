package dsp

import (
	"mmx/internal/dsp/pool"
)

// FFTInto computes the discrete Fourier transform of x into dst's storage
// (append semantics: the backing array is reused when cap(dst) >= len(x),
// nil allocates). dst == x computes the transform in place. Power-of-two
// lengths use an iterative radix-2 Cooley-Tukey; every other length uses
// mixed-radix Cooley-Tukey (radix-2 and radix-5 butterflies plus a
// generic one for other primes), so any length is supported, and a
// length with a large prime factor p costs O(n·p). The tables come from
// the process-wide plan cache (PlanFFT) and the mixed-radix work buffer
// from the package buffer pool, so repeated same-length transforms
// allocate nothing once dst is sized.
func FFTInto(dst, x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return dst[:0]
	}
	return PlanFFT(n).Forward(dst, x)
}

// FFTFreqs returns the frequency (Hz) of each FFT bin for a given length and
// sample rate, in standard FFT order (0..Fs/2, then negative frequencies).
func FFTFreqs(n int, sampleRate float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		if 2*i < n || (n%2 == 0 && 2*i == n) {
			// Bins 0..⌈n/2⌉ map to non-negative frequencies; for even n
			// the Nyquist bin n/2 is reported as +Fs/2.
			out[i] = float64(i) * sampleRate / float64(n)
		} else {
			out[i] = float64(i-n) * sampleRate / float64(n)
		}
	}
	return out
}

// PowerSpectrumInto writes |FFT(x)|²/N² per bin into dst's storage (append
// semantics) — the periodogram estimate of the power in each frequency
// bin. The intermediate transform lives in a pooled buffer.
func PowerSpectrumInto(dst []float64, x []complex128) []float64 {
	X := pool.Complex(len(x))
	X = FFTInto(X, x)
	if cap(dst) < len(X) {
		dst = make([]float64, len(X))
	}
	dst = dst[:len(X)]
	// Normalize by 1/N² so the sum over bins equals the mean power of x
	// (Parseval's theorem).
	inv2 := 1 / (float64(len(X)) * float64(len(X)))
	for i, v := range X {
		dst[i] = (real(v)*real(v) + imag(v)*imag(v)) * inv2
	}
	pool.PutComplex(X)
	return dst
}

// STFT computes a short-time Fourier transform: the power spectrum of
// consecutive (possibly overlapping) Hamming-windowed segments. It
// returns one power-spectrum row per frame (each of length fftSize) —
// the data behind a spectrogram. hop is the stride between frames.
func STFT(x []complex128, fftSize, hop int) [][]float64 {
	if fftSize < 2 || hop < 1 || len(x) < fftSize {
		return nil
	}
	w := Hamming(fftSize)
	var rows [][]float64
	buf := make([]complex128, fftSize)
	for start := 0; start+fftSize <= len(x); start += hop {
		for i := 0; i < fftSize; i++ {
			buf[i] = x[start+i] * complex(w[i], 0)
		}
		rows = append(rows, PowerSpectrumInto(nil, buf))
	}
	return rows
}
