package rf

import (
	"math"
	"math/cmplx"

	"mmx/internal/stats"
	"mmx/internal/units"
)

// VCO models the node's HMC533 voltage-controlled oscillator. Its tuning
// curve reproduces Fig. 7 of the paper: 23.95 GHz at 3.5 V rising to
// 24.25 GHz at 4.9 V, covering the whole 24 GHz ISM band, with the mild
// varactor nonlinearity visible in the measured curve. It also sets the
// free-running phase noise (LinewidthHz) that every synthesized frame
// carries.
type VCO struct {
	// VMin and VMax bound the usable tuning voltage range.
	VMin, VMax float64
	// FMin is the output frequency at VMin; slope and curvature set the
	// rest of the curve.
	FMin float64
	// SlopeHzPerV is the first-order tuning sensitivity at VMin.
	SlopeHzPerV float64
	// CurvatureHzPerV2 is the second-order term (negative: the curve
	// flattens at high voltage, as varactors do).
	CurvatureHzPerV2 float64
}

// NewHMC533 returns the VCO with the paper's measured endpoints:
// f(3.5 V) = 23.95 GHz and f(4.9 V) = 24.25 GHz.
func NewHMC533() *VCO {
	const (
		vmin, vmax = 3.5, 4.9
		fmin, fmax = 23.95e9, 24.25e9
		curvature  = -14e6 // Hz/V², gentle flattening toward VMax
	)
	span := vmax - vmin
	// Solve fmax = fmin + slope·span + curvature·span² for the slope.
	slope := (fmax - fmin - curvature*span*span) / span
	return &VCO{
		VMin: vmin, VMax: vmax,
		FMin:             fmin,
		SlopeHzPerV:      slope,
		CurvatureHzPerV2: curvature,
	}
}

// FrequencyAt returns the oscillation frequency in Hz for a tuning voltage,
// clamping the voltage into the usable range (real VCOs rail, they don't
// stop).
func (v *VCO) FrequencyAt(volts float64) float64 {
	if volts < v.VMin {
		volts = v.VMin
	}
	if volts > v.VMax {
		volts = v.VMax
	}
	dv := volts - v.VMin
	return v.FMin + v.SlopeHzPerV*dv + v.CurvatureHzPerV2*dv*dv
}

// CoversISMBand reports whether the tuning range spans the full 24 GHz ISM
// band, the property §9.1 verifies.
func (v *VCO) CoversISMBand() bool {
	return v.FrequencyAt(v.VMin) <= units.ISM24GHzLow &&
		v.FrequencyAt(v.VMax) >= units.ISM24GHzHigh
}

// TuningCurve samples the curve at n voltages across the full range,
// returning (volts, Hz) pairs — the data behind Fig. 7.
func (v *VCO) TuningCurve(n int) (volts, freqs []float64) {
	if n < 2 {
		n = 2
	}
	volts = make([]float64, n)
	freqs = make([]float64, n)
	for i := 0; i < n; i++ {
		volts[i] = v.VMin + (v.VMax-v.VMin)*float64(i)/float64(n-1)
		freqs[i] = v.FrequencyAt(volts[i])
	}
	return volts, freqs
}

// LinewidthHz is the free-running VCO's Lorentzian linewidth — the
// random-walk phase-noise parameter. mmX deliberately runs the node VCO
// open-loop (no PLL: that is part of why the node is cheap), which a
// coherent modulation could never tolerate; ASK's envelope detection and
// FSK's tone discrimination are what make the open-loop oscillator
// usable.
const LinewidthHz = 20e3

// ApplyPhaseNoise rotates a complex baseband waveform, in place, by the
// free-running oscillator's phase error: a Wiener process with per-sample
// variance 2π·LinewidthHz/sampleRate, starting at zero. It consumes
// exactly len(x) draws from rng and allocates nothing.
func (v *VCO) ApplyPhaseNoise(x []complex128, sampleRate float64, rng *stats.RNG) {
	sigma := math.Sqrt(2 * math.Pi * LinewidthHz / sampleRate)
	phase := 0.0
	for i := range x {
		phase += rng.Normal(0, sigma)
		x[i] *= cmplx.Rect(1, phase)
	}
}
