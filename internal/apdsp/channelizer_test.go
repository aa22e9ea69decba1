package apdsp

// The per-channel reference receiver: the oracle FilterBank is pinned
// against (≤1e-9, bank_test.go). It re-scans the full-rate capture once per
// node — shift the node's TMA harmonic to harmonic 0, mix its channel to
// baseband, low-pass, decimate — which is the textbook statement of what
// the bank computes in one pass. It lives with the tests because nothing
// else should run it.

import (
	"math"
	"math/cmplx"

	"mmx/internal/dsp"
	"mmx/internal/dsp/pool"
	"mmx/internal/tma"
)

// Channelizer splits a wideband capture into per-channel basebands, one
// channel per ExtractInto call.
//
// Concurrency contract: a Channelizer is NOT safe for concurrent use —
// the filter-design cache below is unsynchronized by design. Give each
// worker goroutine its own Channelizer; they share nothing.
// TestChannelizerPerWorkerIsRaceFree pins this usage under the race
// detector.
type Channelizer struct {
	// WidebandRate is the capture's complex sample rate (Hz).
	WidebandRate float64
	// CenterHz is the RF frequency at the capture's baseband zero (the
	// LO chain's net down-conversion target, e.g. the ISM band center).
	CenterHz float64
	// TransitionFraction widens the anti-alias filter's cutoff beyond
	// half the channel width (default 0.25 when zero).
	TransitionFraction float64
	// Taps sets the anti-alias FIR length (default 129 when zero).
	Taps int

	// Cached anti-alias design, keyed by the effective (cutoff, taps,
	// rate) triple of the last ExtractInto call — all three enter the
	// windowed-sinc design, so a change to any of them (including
	// retargeting the Channelizer to a different capture rate) must
	// invalidate the cache.
	lp       *dsp.FIR
	lpCutoff float64
	lpTaps   int
	lpRate   float64
}

// NewChannelizer returns a channelizer for a capture of the given rate
// centered at centerHz.
func NewChannelizer(widebandRate, centerHz float64) *Channelizer {
	return &Channelizer{WidebandRate: widebandRate, CenterHz: centerHz}
}

// Extract returns the baseband stream of one FDM channel: the capture
// mixed down by (channelHz − CenterHz), low-passed to the channel, and
// decimated to outRate.
func (c *Channelizer) Extract(x []complex128, channelHz, widthHz, outRate float64) ([]complex128, error) {
	return c.ExtractInto(nil, x, channelHz, widthHz, outRate)
}

// ExtractInto is Extract with append-style buffer reuse: the decimated
// channel stream is written into dst's storage when its capacity
// suffices, and the full-rate mix/filter intermediates live in pooled
// scratch buffers. dst must not alias x. The anti-alias filter design
// (tap computation) is cached per (width, rate, taps) in the Channelizer.
func (c *Channelizer) ExtractInto(dst, x []complex128, channelHz, widthHz, outRate float64) ([]complex128, error) {
	if dsp.Aliases(dst, x) {
		return nil, ErrAliased
	}
	offset := channelHz - c.CenterHz
	if math.Abs(offset)+widthHz/2 > c.WidebandRate/2 {
		return nil, ErrBadChannel
	}
	if outRate <= 0 || outRate > c.WidebandRate {
		return nil, ErrBadRate
	}
	factor := c.WidebandRate / outRate
	if math.Abs(factor-math.Round(factor)) > 1e-9 {
		return nil, ErrBadRate
	}
	tf := c.TransitionFraction
	if tf <= 0 {
		tf = 0.25
	}
	taps := c.Taps
	if taps <= 0 {
		taps = 129
	}
	cutoff := widthHz / 2 * (1 + tf)
	if c.lp == nil || c.lpCutoff != cutoff || c.lpTaps != taps || c.lpRate != c.WidebandRate {
		c.lp = dsp.LowPass(cutoff, c.WidebandRate, taps)
		c.lpCutoff, c.lpTaps, c.lpRate = cutoff, taps, c.WidebandRate
	}
	mixed := pool.Complex(len(x))
	mixed = MixDownInto(mixed, x, offset, c.WidebandRate)
	filtered := pool.Complex(len(x))
	filtered = c.lp.FilterInto(filtered, mixed)
	out := DecimateInto(dst, filtered, int(math.Round(factor)))
	pool.PutComplex(filtered)
	pool.PutComplex(mixed)
	return out, nil
}

// harmonicShift translates a capture of array a's output, sampled at
// rate, so that the given TMA harmonic moves to the harmonic-0 position:
// after the shift, the node parked on that harmonic sits on its ordinary
// FDM channel and the Channelizer's band-selection filter rejects the
// other co-channel nodes (their strongest copies now sit ±k·f_p away).
// Filtering and decimation are deliberately left to the Channelizer so
// channels anywhere in the band survive (a post-mix boxcar would null
// channels at harmonic multiples).
func harmonicShift(y []complex128, a *tma.Array, harmonic int, rate float64) []complex128 {
	return harmonicShiftInto(nil, y, a, harmonic, rate)
}

// harmonicShiftInto is harmonicShift with append-style buffer reuse.
// dst == y is allowed (the mix is elementwise), so it can shift in place.
func harmonicShiftInto(dst, y []complex128, a *tma.Array, harmonic int, rate float64) []complex128 {
	if harmonic == 0 {
		if cap(dst) < len(y) {
			dst = make([]complex128, len(y))
		}
		dst = dst[:len(y)]
		copy(dst, y)
		return dst
	}
	return MixDownInto(dst, y, float64(harmonic)*a.SwitchRateHz, rate)
}

// MixDownInto multiplies x by e^{-j2π f t}, shifting a tone at freqHz down
// to DC, into dst's storage (append semantics). dst may alias x (the mix
// is elementwise), so MixDownInto(x, x, ...) shifts in place.
func MixDownInto(dst, x []complex128, freqHz, sampleRate float64) []complex128 {
	if cap(dst) < len(x) {
		dst = make([]complex128, len(x))
	}
	dst = dst[:len(x)]
	w := -2 * math.Pi * freqHz / sampleRate
	for i, v := range x {
		dst[i] = v * cmplx.Rect(1, w*float64(i))
	}
	return dst
}

// DecimateInto keeps every factor-th sample of x (already anti-alias
// filtered) into dst's storage (append semantics). dst may alias x (the
// write cursor never passes the read cursor).
func DecimateInto(dst, x []complex128, factor int) []complex128 {
	n := (len(x) + factor - 1) / factor
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	for i, j := 0, 0; i < len(x); i, j = i+factor, j+1 {
		dst[j] = x[i]
	}
	return dst
}
