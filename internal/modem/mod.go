package modem

import (
	"math"

	"mmx/internal/dsp"
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
//
// The oscillator costs one math.Sincos per symbol: each symbol starts
// from the carrier phase φ, kept in [−π, π) and advanced per symbol by
// the tone's spb·2πF/Fs reduced modulo 2π; inside the symbol the phasor
// steps by powers of the tone's rotator e^{j2πF/Fs}. Every product is
// rounded by a float64 conversion before it is summed, so no
// architecture fuses it and every GOARCH computes the same bits. Against
// exact cycle counts a sample is within 1e-9 at unit gain over a full
// 250 MS/s wideband frame (TestSynthesizeMatchesExactPhase).
func SynthesizeInto(dst []complex128, cfg Config, bits []bool, g0, g1 complex128) []complex128 {
	spb := cfg.SamplesPerSymbol()
	n := len(bits) * spb
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	out := dst[:n]
	t0, t1 := newTone(cfg.F0, cfg.SampleRate, spb), newTone(cfg.F1, cfg.SampleRate, spb)
	phase := 0.0
	i := 0
	for _, b := range bits {
		t, g := &t0, g0
		if b {
			t, g = &t1, g1
		}
		zi, zr := math.Sincos(phase)
		// w is g·e^{jφ} at the head of each run of toneRun samples; a
		// run's samples w·r^k are independent of one another, so their
		// multiplies overlap instead of queueing on one phasor.
		w := dsp.Mul(g, complex(zr, zi))
		for end := i + spb; i < end; {
			o := out[i:min(i+toneRun, end)]
			for k, p := range t.pow[:len(o)] {
				o[k] = dsp.Mul(w, p)
			}
			i += len(o)
			w = dsp.Mul(w, t.step)
		}
		phase += t.adv
		if phase >= math.Pi {
			phase -= 2 * math.Pi
		} else if phase < -math.Pi {
			phase += 2 * math.Pi
		}
	}
	return out
}

// toneRun is how many samples one carrier phasor spans.
const toneRun = 8

// tone is one of the oscillator's two frequencies: the rotator's powers
// r^0 … r^{toneRun−1} for r = e^{j2πF/Fs}, the run step r^toneRun, and
// the per-symbol phase advance in [−π, π).
type tone struct {
	pow  [toneRun]complex128
	step complex128
	adv  float64
}

func newTone(f, fs float64, spb int) tone {
	var t tone
	ri, rr := math.Sincos(2 * math.Pi * f / fs)
	p := complex(1, 0)
	for k := range t.pow {
		t.pow[k] = p
		p = dsp.Mul(p, complex(rr, ri))
	}
	t.step = p
	// Reducing spb·F modulo Fs is exact (math.Mod), so the advance keeps
	// its fraction of a cycle to full precision however many whole
	// cycles a symbol spans.
	cyc := math.Mod(float64(spb)*f, fs) / fs
	t.adv = 2 * math.Pi * (cyc - math.Round(cyc))
	return t
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
