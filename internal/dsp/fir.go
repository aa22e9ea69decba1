package dsp

import (
	"math"
	"sync"

	"mmx/internal/dsp/pool"
)

// FIR is a finite-impulse-response filter defined by its real tap weights.
// Apply it to complex IQ data with FilterInto.
//
// Long filters are applied by overlap-save FFT convolution: above the
// olsMinTaps crossover the filter lazily caches its frequency response
// (the FFT of the taps at the overlap-save block size) on first use.
// Taps may be edited freely before the first FilterInto call and must be
// treated as frozen afterwards. Concurrent FilterInto calls on one FIR
// are safe; the cached response is built exactly once.
type FIR struct {
	Taps []float64

	olsOnce sync.Once
	ols     *olsState
}

// olsState is the immutable overlap-save execution state: the FFT plan,
// the taps' frequency response at the FFT size, and the block geometry.
type olsState struct {
	plan  *FFTPlan
	h     []complex128 // FFT of the zero-padded taps
	nfft  int          // FFT size (power of two)
	block int          // new samples consumed per block: nfft - taps + 1
}

// Overlap-save crossover heuristic (see DESIGN.md §10): direct convolution
// costs ~taps complex MACs per sample; overlap-save costs two size-N FFTs
// plus N pointwise products per (N - taps + 1) samples. With N = 8×taps
// the FFT path wins decisively above a few dozen taps; below that, or for
// inputs too short to fill a block's useful region, direct stays cheaper
// and avoids the transform latency.
const (
	olsMinTaps   = 64 // shortest filter routed through overlap-save
	olsFFTFactor = 8  // FFT size target: next pow2 >= factor × (taps-1)
)

// olsReady returns the overlap-save state when the (taps, input) geometry
// favors FFT convolution, building it on first use, or nil to convolve
// directly.
func (f *FIR) olsReady(inputLen int) *olsState {
	taps := len(f.Taps)
	if taps < olsMinTaps || inputLen < 2*taps {
		return nil
	}
	f.olsOnce.Do(func() {
		n := 1
		for n < olsFFTFactor*(taps-1) {
			n <<= 1
		}
		h := make([]complex128, n)
		for i, t := range f.Taps {
			h[i] = complex(t, 0)
		}
		plan := PlanFFT(n)
		plan.Forward(h, h)
		f.ols = &olsState{plan: plan, h: h, nfft: n, block: n - taps + 1}
	})
	return f.ols
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
// dst panics. Filters of olsMinTaps or more taps applied to inputs of at
// least twice the filter length run as overlap-save FFT convolution
// (identical output up to floating-point rounding, ~1e-13); shorter ones
// convolve directly.
func (f *FIR) FilterInto(dst, x []complex128) []complex128 {
	if cap(dst) >= len(x) && Aliases(dst, x) {
		panic("dsp: FilterInto dst must not alias x")
	}
	if cap(dst) < len(x) {
		dst = make([]complex128, len(x))
	}
	dst = dst[:len(x)]
	if st := f.olsReady(len(x)); st != nil {
		f.filterOLS(st, dst, x)
		return dst
	}
	f.filterDirect(dst, x)
	return dst
}

// filterDirect is the O(len(x)·taps) reference convolution.
func (f *FIR) filterDirect(dst, x []complex128) {
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
}

// filterOLS applies the filter by overlap-save: each iteration transforms
// nfft input samples (taps-1 of history, block new ones), multiplies by
// the cached tap response, inverse-transforms, and keeps the block
// samples that correspond to linear (not circular) convolution. History
// before the start of x is zero, matching filterDirect's streaming
// semantics. The block buffer is pooled; the steady state allocates
// nothing.
func (f *FIR) filterOLS(st *olsState, dst, x []complex128) {
	hist := len(f.Taps) - 1
	buf := pool.Complex(st.nfft)
	for start := 0; start < len(x); start += st.block {
		lo := start - hist // first input index the block reads
		n := 0
		if lo < 0 {
			for i := 0; i < -lo; i++ {
				buf[i] = 0
			}
			n = -lo
			lo = 0
		}
		hi := start - hist + st.nfft
		if hi > len(x) {
			hi = len(x)
		}
		n += copy(buf[n:], x[lo:hi])
		for i := n; i < st.nfft; i++ {
			buf[i] = 0
		}
		st.plan.Forward(buf, buf)
		for i, hv := range st.h {
			buf[i] *= hv
		}
		st.plan.Inverse(buf, buf)
		end := start + st.block
		if end > len(x) {
			end = len(x)
		}
		copy(dst[start:end], buf[hist:hist+(end-start)])
	}
	pool.PutComplex(buf)
}
