package modem

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
	"testing"
)

// exactCycles steps a carrier's phase in whole cycles with no rounding:
// F0/Fs and F1/Fs as exact rationals over one common denominator q, and
// the phase as a numerator in [0, q), so sample k's phase is the exact
// fractional part of Σ_{i<k} F(bit i)/Fs.
type exactCycles struct {
	q, a0, a1, num int64
}

func newExactCycles(t *testing.T, cfg Config) *exactCycles {
	t.Helper()
	r0 := new(big.Rat).Quo(new(big.Rat).SetFloat64(cfg.F0), new(big.Rat).SetFloat64(cfg.SampleRate))
	r1 := new(big.Rat).Quo(new(big.Rat).SetFloat64(cfg.F1), new(big.Rat).SetFloat64(cfg.SampleRate))
	d0, d1 := r0.Denom(), r1.Denom()
	q := new(big.Int).Mul(d0, d1)
	q.Quo(q, new(big.Int).GCD(nil, nil, d0, d1))
	// a = frac(F/Fs)·q, in [0, q).
	frac := func(r *big.Rat) int64 {
		n := new(big.Int).Mul(r.Num(), new(big.Int).Quo(q, r.Denom()))
		return n.Mod(n, q).Int64()
	}
	if !q.IsInt64() || q.Int64() > 1<<52 {
		t.Fatalf("F/Fs denominators too large for the exact reference: %v", q)
	}
	return &exactCycles{q: q.Int64(), a0: frac(r0), a1: frac(r1)}
}

// sample returns e^{j2π·phase} for the current phase, then advances it
// by one sample of the given tone. num/q converts with one rounding, so
// the reference is within a few 1e-16 of the exact carrier.
func (e *exactCycles) sample(bit bool) complex128 {
	s, c := math.Sincos(2 * math.Pi * (float64(e.num) / float64(e.q)))
	a := e.a0
	if bit {
		a = e.a1
	}
	e.num = (e.num + a) % e.q
	return complex(c, s)
}

// TestSynthesizeMatchesExactPhase pins the phasor oscillator against a
// carrier whose phase is counted exactly: a full phy-ap wideband frame
// (106 symbols of 2000 samples at 250 MS/s) at channel offsets 0, +1,
// +37 and −99.5 MHz, and a long frame at the 25 MS/s link numerology.
// At unit gain every sample is within 1e-9 of the exact carrier; a zero
// gain gives exact zeros; and at the wideband rate the carrier turns by
// exactly the previous sample's tone step, across tone switches too.
func TestSynthesizeMatchesExactPhase(t *testing.T) {
	const bound = 1e-9
	wideBits, err := BuildFrame([]byte{0x5a, 0xc3, 0x0f, 0x96})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i*37 + 11)
	}
	linkBits, err := BuildFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	type scene struct {
		name string
		cfg  Config
		bits []bool
	}
	scenes := []scene{{"link-25MSps", DefaultConfig(), linkBits}}
	for _, off := range []float64{0, 1e6, 37e6, -99.5e6} {
		scenes = append(scenes, scene{
			name: fmt.Sprintf("wide%+gMHz", off/1e6),
			cfg:  Config{SampleRate: 250e6, SymbolRate: 125e3, F0: off - 250e3, F1: off + 250e3},
			bits: wideBits,
		})
	}
	g1 := cmplx.Rect(1, 0.7)
	for _, sc := range scenes {
		spb := sc.cfg.SamplesPerSymbol()
		wide := sc.cfg.SampleRate == 250e6
		if wide && (len(sc.bits) != 106 || spb != 2000) {
			t.Fatalf("%s: %d symbols of %d samples, want 106 of 2000", sc.name, len(sc.bits), spb)
		}
		x := Synthesize(sc.cfg, sc.bits, 1, g1)
		ref := newExactCycles(t, sc.cfg)
		worst := 0.0
		for s, b := range sc.bits {
			g := complex(1, 0)
			if b {
				g = g1
			}
			for k := s * spb; k < (s+1)*spb; k++ {
				if d := cmplx.Abs(x[k] - g*ref.sample(b)); d > worst {
					worst = d
				}
			}
		}
		if worst > bound {
			t.Errorf("%s: worst |Δ| = %.3g against the exact carrier, bound %g", sc.name, worst, bound)
		}
		t.Logf("%s: worst |Δ| = %.3g over %d samples", sc.name, worst, len(x))

		z := Synthesize(sc.cfg, sc.bits, 0, g1)
		for s, b := range sc.bits {
			for k := s * spb; !b && k < (s+1)*spb; k++ {
				if z[k] != 0 {
					t.Fatalf("%s: zero gain gave %v at sample %d", sc.name, z[k], k)
				}
			}
		}

		if !wide {
			continue
		}
		u := Synthesize(sc.cfg, sc.bits, 1, 1)
		for k := 1; k < len(u); k++ {
			f := sc.cfg.F0
			if sc.bits[(k-1)/spb] {
				f = sc.cfg.F1
			}
			want := math.Remainder(2*math.Pi*f/sc.cfg.SampleRate, 2*math.Pi)
			got := cmplx.Phase(u[k] * cmplx.Conj(u[k-1]))
			if d := math.Abs(math.Remainder(got-want, 2*math.Pi)); d > bound {
				t.Fatalf("%s: carrier turned %.12g rad into sample %d, want %.12g", sc.name, got, k, want)
			}
		}
	}
}

// TestSynthesizeIntoAllocatesNothing pins the synthesizer's warm path:
// with dst large enough, a frame allocates nothing.
func TestSynthesizeIntoAllocatesNothing(t *testing.T) {
	cfg := Config{SampleRate: 250e6, SymbolRate: 125e3, F0: 36.75e6, F1: 37.25e6}
	bits, err := BuildFrame([]byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	dst := Synthesize(cfg, bits, 0.1, 0.9)
	allocs := testing.AllocsPerRun(10, func() {
		dst = SynthesizeInto(dst, cfg, bits, 0.1, 0.9)
	})
	if allocs != 0 {
		t.Errorf("allocs/op = %v with a warm dst, want 0", allocs)
	}
}
