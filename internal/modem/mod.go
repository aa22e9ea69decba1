package modem

import (
	"math"
	"math/cmplx"
)

// Config fixes the air-interface numerology shared by modulator and
// demodulator.
type Config struct {
	// SampleRate is the complex baseband sample rate in Hz.
	SampleRate float64
	// SymbolRate is the OOK/FSK symbol rate in Hz (1 bit per symbol; at
	// the 100 MHz switch limit this is the 100 Mbps ceiling).
	SymbolRate float64
	// F0 and F1 are the baseband tone frequencies (Hz) used while
	// transmitting bit 0 and bit 1. For pure ASK set them equal; for
	// joint ASK-FSK the node offsets its VCO slightly between beams
	// (§6.3), so F0 ≠ F1.
	F0, F1 float64
}

// DefaultConfig returns the numerology used throughout the experiments:
// 1 Msym/s at 25 MS/s (the per-node USRP capture rate), with a ±250 kHz
// FSK split.
func DefaultConfig() Config {
	return Config{
		SampleRate: 25e6,
		SymbolRate: 1e6,
		F0:         -250e3,
		F1:         250e3,
	}
}

// SamplesPerSymbol returns the integer oversampling factor.
func (c Config) SamplesPerSymbol() int {
	n := int(math.Round(c.SampleRate / c.SymbolRate))
	if n < 1 {
		n = 1
	}
	return n
}

// Synthesize produces the received complex baseband waveform for a bit
// stream given the effective complex gain applied while each bit value is
// transmitted. The carrier is phase-continuous across symbols — it is one
// free-running VCO whose frequency steps between F0 and F1 and whose
// output is routed through different propagation paths:
//
//	sample = gain(bit) · e^{jφ},  φ += 2π·F(bit)/Fs
//
// For OTAM, g0 and g1 are the two beams' channel gains h0, h1 (optionally
// including switch leakage, already composed by the caller); for a
// conventional ASK transmitter they are the high/low modulator amplitudes
// times a common channel gain.
func Synthesize(cfg Config, bits []bool, g0, g1 complex128) []complex128 {
	return SynthesizeInto(nil, cfg, bits, g0, g1)
}

// SynthesizeInto is Synthesize with append-style buffer reuse: the
// waveform is written into dst's storage when its capacity suffices
// (len(bits)·spb samples), otherwise a new slice is allocated.
func SynthesizeInto(dst []complex128, cfg Config, bits []bool, g0, g1 complex128) []complex128 {
	spb := cfg.SamplesPerSymbol()
	n := len(bits) * spb
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	out := dst[:n]
	phase := 0.0
	i := 0
	for _, b := range bits {
		f := cfg.F0
		g := g0
		if b {
			f = cfg.F1
			g = g1
		}
		step := 2 * math.Pi * f / cfg.SampleRate
		for s := 0; s < spb; s++ {
			out[i] = g * cmplx.Rect(1, phase)
			phase += step
			i++
		}
	}
	return out
}

// PadRandomOffset prepends `offset` zero samples (dead air before the
// packet) so receivers must genuinely synchronize.
func PadRandomOffset(x []complex128, offset int) []complex128 {
	if offset <= 0 {
		return x
	}
	out := make([]complex128, offset+len(x))
	copy(out[offset:], x)
	return out
}
