package rf

import (
	"math"

	"mmx/internal/units"
)

// MicrostripFilter models the AP's coupled-line bandpass filter (§8.2):
// a PCB-etched filter centered at 24 GHz with 5 dB passband insertion loss.
// Its response is approximated by a Butterworth-style bandpass shape of
// order N, which captures the selectivity that matters for out-of-band
// interference rejection.
type MicrostripFilter struct {
	// CenterHz and BandwidthHz locate the passband.
	CenterHz, BandwidthHz float64
	// InsertionLossDB is the loss at band center.
	InsertionLossDB float64
	// Order sets the skirt steepness.
	Order int
}

// NewCoupledLineFilter returns the paper's filter: 24 GHz center, sized to
// pass the 250 MHz ISM band plus margin, 5 dB insertion loss.
func NewCoupledLineFilter() *MicrostripFilter {
	return &MicrostripFilter{
		CenterHz:        units.ISM24GHzCenter,
		BandwidthHz:     400e6,
		InsertionLossDB: 5,
		Order:           3,
	}
}

// GainDB returns the filter's power gain (≤ -insertion loss) at freqHz.
func (f *MicrostripFilter) GainDB(freqHz float64) float64 {
	if f.BandwidthHz <= 0 {
		return -f.InsertionLossDB
	}
	// Butterworth bandpass magnitude via the normalized detuning.
	x := 2 * (freqHz - f.CenterHz) / f.BandwidthHz
	order := f.Order
	if order < 1 {
		order = 1
	}
	mag2 := 1 / (1 + math.Pow(x*x, float64(order)))
	return -f.InsertionLossDB + 10*math.Log10(mag2)
}

// RejectionDB returns how much more a frequency is attenuated than the
// band center (a positive number outside the band).
func (f *MicrostripFilter) RejectionDB(freqHz float64) float64 {
	return f.GainDB(f.CenterHz) - f.GainDB(freqHz)
}

// ADC models the baseband digitizer: full-scale range, resolution, and
// sample rate (the prototype's USRP N210 front end).
type ADC struct {
	// Bits is the quantizer resolution.
	Bits int
	// FullScale is the amplitude mapped to the maximum code.
	FullScale float64
	// SampleRateHz is the complex sample rate.
	SampleRateHz float64
}

// NewUSRPN210 returns the prototype's digitizer: 14-bit, 25 MS/s complex
// per captured sub-band (§9.5 captures 25 MHz per node).
func NewUSRPN210() *ADC {
	return &ADC{Bits: 14, FullScale: 1.0, SampleRateHz: 25e6}
}

// Quantize rounds one amplitude to the ADC grid, clipping at full scale.
func (a *ADC) Quantize(v float64) float64 {
	levels := float64(int64(1) << uint(a.Bits-1)) // per polarity
	if v > a.FullScale {
		v = a.FullScale
	}
	if v < -a.FullScale {
		v = -a.FullScale
	}
	step := a.FullScale / levels
	return math.Round(v/step) * step
}

// QuantizeIQInPlace quantizes a complex baseband capture in place (I and Q
// each through Quantize) and returns it; it allocates nothing.
func (a *ADC) QuantizeIQInPlace(x []complex128) []complex128 {
	for i, v := range x {
		x[i] = complex(a.Quantize(real(v)), a.Quantize(imag(v)))
	}
	return x
}
