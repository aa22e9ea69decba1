package dsp

import (
	"math"
	"math/cmplx"
)

// Goertzel measures the power of a single frequency component in a block of
// complex samples. It is the tone detector behind the mmX AP's FSK
// discriminator: two Goertzel filters, one per FSK tone, are compared per
// symbol. For complex input the classic real-valued recurrence is replaced
// by a direct single-bin DFT, which is what the Goertzel algorithm
// computes.
type Goertzel struct {
	// coeff = e^{-j 2π f / Fs}, the per-sample rotation of the probe.
	coeff complex128
}

// NewGoertzel creates a detector for freqHz at the given sample rate.
func NewGoertzel(freqHz, sampleRate float64) *Goertzel {
	return &Goertzel{coeff: cmplx.Rect(1, -2*math.Pi*freqHz/sampleRate)}
}

// Power returns the normalized power of the probe frequency in block:
// |Σ x[n] e^{-j2πfn/Fs}|² / N². A pure tone of amplitude A at the probe
// frequency yields A².
func (g *Goertzel) Power(block []complex128) float64 {
	if len(block) == 0 {
		return 0
	}
	var acc complex128
	w := complex(1, 0)
	for _, v := range block {
		acc += v * w
		w *= g.coeff
	}
	n := float64(len(block))
	return (real(acc)*real(acc) + imag(acc)*imag(acc)) / (n * n)
}

// ToneDiscriminator compares the energy of two candidate tones in each
// symbol-length block, the core of binary FSK demodulation.
type ToneDiscriminator struct {
	g0, g1 *Goertzel
}

// NewToneDiscriminator builds a discriminator for tone 0 at f0Hz and tone 1
// at f1Hz.
func NewToneDiscriminator(f0Hz, f1Hz, sampleRate float64) *ToneDiscriminator {
	return &ToneDiscriminator{
		g0: NewGoertzel(f0Hz, sampleRate),
		g1: NewGoertzel(f1Hz, sampleRate),
	}
}

// Decide returns true (bit 1) if tone 1 carries more energy in the block,
// along with the two measured powers.
func (d *ToneDiscriminator) Decide(block []complex128) (bit bool, p0, p1 float64) {
	p0 = d.g0.Power(block)
	p1 = d.g1.Power(block)
	return p1 > p0, p0, p1
}
