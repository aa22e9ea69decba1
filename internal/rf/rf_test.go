package rf

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"mmx/internal/stats"
	"mmx/internal/units"
)

func statsNewRNG(seed uint64) *stats.RNG { return stats.NewRNG(seed) }

func TestVCOTuningEndpoints(t *testing.T) {
	v := NewHMC533()
	if f := v.FrequencyAt(3.5); math.Abs(f-23.95e9) > 1e3 {
		t.Errorf("f(3.5V) = %g", f)
	}
	if f := v.FrequencyAt(4.9); math.Abs(f-24.25e9) > 1e3 {
		t.Errorf("f(4.9V) = %g", f)
	}
	if !v.CoversISMBand() {
		t.Error("VCO should cover the whole 24 GHz ISM band")
	}
}

func TestVCOMonotoneProperty(t *testing.T) {
	v := NewHMC533()
	f := func(a, b uint16) bool {
		v1 := 3.5 + float64(a%1400)/1000
		v2 := v1 + 0.001 + float64(b%100)/1000
		if v2 > 4.9 {
			v2 = 4.9
		}
		if v2 <= v1 {
			return true
		}
		return v.FrequencyAt(v2) > v.FrequencyAt(v1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVCOClamping(t *testing.T) {
	v := NewHMC533()
	if v.FrequencyAt(0) != v.FrequencyAt(3.5) {
		t.Error("below-range voltage should clamp to VMin")
	}
	if v.FrequencyAt(10) != v.FrequencyAt(4.9) {
		t.Error("above-range voltage should clamp to VMax")
	}
}

func TestVCOTuningCurveShape(t *testing.T) {
	v := NewHMC533()
	volts, freqs := v.TuningCurve(15)
	if len(volts) != 15 || len(freqs) != 15 {
		t.Fatal("TuningCurve size")
	}
	if volts[0] != 3.5 || volts[14] != 4.9 {
		t.Errorf("voltage range %g..%g", volts[0], volts[14])
	}
	for i := 1; i < len(freqs); i++ {
		if freqs[i] <= freqs[i-1] {
			t.Fatal("tuning curve not monotone")
		}
	}
	// Curvature: slope in the first half exceeds slope in the second.
	s1 := freqs[7] - freqs[0]
	s2 := freqs[14] - freqs[7]
	if s1 <= s2 {
		t.Errorf("expected flattening curve, got s1=%g s2=%g", s1, s2)
	}
	// Degenerate n.
	vv, ff := v.TuningCurve(1)
	if len(vv) != 2 || len(ff) != 2 {
		t.Error("TuningCurve(1) should clamp to 2 points")
	}
}

func TestSwitchRates(t *testing.T) {
	s := NewADRF5020()
	if s.MaxBitRate() != 100e6 {
		t.Errorf("MaxBitRate = %g", s.MaxBitRate())
	}
}

func TestSwitchGains(t *testing.T) {
	s := NewADRF5020()
	if g := s.SelectedGain(); math.Abs(20*math.Log10(g)+2) > 1e-9 {
		t.Errorf("selected gain = %g dB", 20*math.Log10(g))
	}
	if g := s.LeakageGain(); math.Abs(20*math.Log10(g)+67) > 1e-9 {
		t.Errorf("leakage gain = %g dB", 20*math.Log10(g))
	}
}

func TestChainCascade(t *testing.T) {
	// Friis: LNA-first keeps NF near the LNA's own.
	c := APRXChain()
	nf := c.NoiseFigureDB()
	if nf < 2 || nf > 3.5 {
		t.Errorf("AP cascade NF = %.2f dB, want ≈2-3.5 (LNA-dominated)", nf)
	}
	// Reversing the order (filter first) must be clearly worse: the 5 dB
	// passive loss adds directly.
	rev := &Chain{Stages: []Component{PartMicrostripFilter, PartLNA, PartSubharmonicMixer, PartBaseband}}
	if rev.NoiseFigureDB() < nf+4 {
		t.Errorf("filter-first NF %.2f should exceed LNA-first %.2f by ≈5 dB",
			rev.NoiseFigureDB(), nf)
	}
	if (&Chain{}).NoiseFigureDB() != 0 {
		t.Error("empty chain NF should be 0")
	}
}

func TestNodeChainTotals(t *testing.T) {
	n := NodeTXChain()
	// Paper headline: 1.1 W and $110 node.
	if p := n.PowerW(); math.Abs(p-1.1) > 0.01 {
		t.Errorf("node power = %.2f W, want 1.1", p)
	}
	if cst := n.CostUSD(); math.Abs(cst-110) > 0.5 {
		t.Errorf("node cost = $%.0f, want $110", cst)
	}
}

func TestPhasedArrayRadioIsWorse(t *testing.T) {
	conv := PhasedArrayRadio()
	node := NodeTXChain()
	if conv.CostUSD() < 3*node.CostUSD() {
		t.Errorf("conventional radio $%.0f should dwarf node $%.0f",
			conv.CostUSD(), node.CostUSD())
	}
	if conv.PowerW() < 2*node.PowerW() {
		t.Errorf("conventional radio %.1f W should dwarf node %.1f W",
			conv.PowerW(), node.PowerW())
	}
}

func TestMicrostripFilterResponse(t *testing.T) {
	f := NewCoupledLineFilter()
	// Band center: exactly the insertion loss.
	if g := f.GainDB(units.ISM24GHzCenter); math.Abs(g+5) > 1e-9 {
		t.Errorf("center gain = %g dB", g)
	}
	// Band edge (±125 MHz): within a few dB of center.
	if rej := f.RejectionDB(units.ISM24GHzCenter + 125e6); rej > 3 {
		t.Errorf("in-band rejection = %.1f dB, want <3", rej)
	}
	// Far out of band (say WiGig at 26 GHz): heavily rejected.
	if rej := f.RejectionDB(26e9); rej < 40 {
		t.Errorf("26 GHz rejection = %.1f dB, want >40", rej)
	}
	// Symmetric about the center.
	d := 300e6
	if math.Abs(f.GainDB(f.CenterHz+d)-f.GainDB(f.CenterHz-d)) > 1e-9 {
		t.Error("filter response should be symmetric")
	}
}

func TestFilterDegenerate(t *testing.T) {
	f := &MicrostripFilter{CenterHz: 24e9, BandwidthHz: 0, InsertionLossDB: 5}
	if f.GainDB(10e9) != -5 {
		t.Error("zero-bandwidth filter should be flat at -IL")
	}
	f2 := &MicrostripFilter{CenterHz: 24e9, BandwidthHz: 1e9, InsertionLossDB: 0, Order: 0}
	if f2.GainDB(24e9) != 0 {
		t.Error("order<1 should clamp to 1")
	}
}

func TestADCQuantize(t *testing.T) {
	a := &ADC{Bits: 3, FullScale: 1, SampleRateHz: 1e6}
	// 3 bits → 4 levels per polarity, step 0.25.
	if got := a.Quantize(0.3); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Quantize(0.3) = %g", got)
	}
	if got := a.Quantize(2); got != 1 {
		t.Errorf("clip high = %g", got)
	}
	if got := a.Quantize(-2); got != -1 {
		t.Errorf("clip low = %g", got)
	}
	iq := a.QuantizeIQInPlace([]complex128{complex(0.3, -0.3)})
	if real(iq[0]) != 0.25 || imag(iq[0]) != -0.25 {
		t.Errorf("QuantizeIQInPlace = %v", iq[0])
	}
}

func TestADCSQNR(t *testing.T) {
	// A full-scale sinusoid through the digitizer the waveform path uses
	// reaches the ideal quantizer's 6.02·bits + 1.76 dB.
	a := NewUSRPN210()
	const n = 100003 // prime, so the phases sample the whole cycle
	var sig, noise float64
	for i := 0; i < n; i++ {
		x := a.FullScale * math.Sin(2*math.Pi*float64(i)*1013/n)
		e := a.Quantize(x) - x
		sig += x * x
		noise += e * e
	}
	if got := 10 * math.Log10(sig/noise); math.Abs(got-(6.02*14+1.76)) > 0.5 {
		t.Errorf("SQNR = %g", got)
	}
	// Quantization error for a 14-bit ADC is tiny.
	x := 0.123456
	if err := math.Abs(a.Quantize(x) - x); err > a.FullScale/math.Pow(2, 13) {
		t.Errorf("quantization error %g too large", err)
	}
}

func TestAPFrontEndNoiseFigure(t *testing.T) {
	nf := APFrontEndNoiseFigureDB()
	if nf < 2 || nf > 3.5 {
		t.Errorf("front-end NF = %.2f", nf)
	}
}

func TestPhaseNoiseTrack(t *testing.T) {
	v := NewHMC533()
	fs := 25e6
	n := 200000
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	v.ApplyPhaseNoise(x, fs, statsNewRNG(5))
	// Wiener process: variance of the increment over k samples ≈
	// k·2π·linewidth/fs, read as the phase of x[i+k]·conj(x[i]). k keeps
	// that phase's standard deviation near 0.5 rad, so it never wraps, and
	// leaves ~4000 windows; χ² scatter stays within a few percent.
	k := 50
	var s2 float64
	count := 0
	for i := 0; i+k < n; i += k {
		d := cmplx.Phase(x[i+k] * cmplx.Conj(x[i]))
		s2 += d * d
		count++
	}
	got := s2 / float64(count)
	want := float64(k) * 2 * math.Pi * LinewidthHz / fs
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("increment variance = %g, want ≈%g", got, want)
	}
}
