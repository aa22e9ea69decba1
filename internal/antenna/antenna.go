// Package antenna models the radiating elements and arrays of the mmX
// system: patch/dipole element patterns, uniform linear arrays with
// arbitrary per-element excitation, and the mmX node's two orthogonal
// fixed beams (Beam 1 broadside, Beam 0 split toward ±30° with a broadside
// null) that OTAM switches between. Angles are azimuth radians; θ = 0 is
// the array's broadside (boresight) direction.
//
// Patterns return complex field amplitudes so array synthesis preserves
// phase; power gains derive from |field|². Gains are normalized so that a
// pattern's quoted PeakGainDBi is reached at its strongest direction.
package antenna

import (
	"math"
	"math/cmplx"
)

// Element is a single radiator's normalized field pattern: |Field| has
// maximum 1 at the element's boresight.
type Element interface {
	// Field returns the normalized complex field amplitude toward azimuth
	// theta (radians from boresight).
	Field(theta float64) complex128
}

// Isotropic radiates equally in all directions.
type Isotropic struct{}

// Field implements Element with unit response everywhere.
func (Isotropic) Field(theta float64) complex128 { return 1 }

// Patch is a microstrip patch element modeled with a cos^Q front-facing
// pattern plus a small back lobe, the standard compact approximation.
type Patch struct {
	// Q controls directivity; Q≈1 gives the classic patch azimuth cut.
	Q float64
	// BackLobe is the field amplitude radiated behind the ground plane
	// (|theta| > π/2), typically ≈0.05–0.15.
	BackLobe float64
}

// DefaultPatch matches the fabricated patches of §8.1: the measured
// Fig. 8 patterns roll off faster than an ideal cos(θ) element (finite
// ground plane, substrate losses), which cos²(θ) captures well — ≈−12 dB
// of element power at 60° off boresight.
func DefaultPatch() Patch { return Patch{Q: 2, BackLobe: 0.1} }

// Field implements Element.
func (p Patch) Field(theta float64) complex128 {
	c := math.Cos(theta)
	if c <= 0 {
		return complex(p.BackLobe, 0)
	}
	q := p.Q
	if q <= 0 {
		q = 1
	}
	// Pow's integer-exponent path squares the mantissa and rescales, the
	// same bits as c*c whenever c² is normal, as it is for every positive
	// cosine; the default patch's Q of 2 skips the call.
	v := c * c
	if q != 2 {
		v = math.Pow(c, q)
	}
	if v < p.BackLobe {
		v = p.BackLobe
	}
	return complex(v, 0)
}

// CosPower is a generic cos^(2q) *power* pattern element parameterized by
// its half-power beamwidth. It models the AP's dipole (5 dBi, 62° HPBW in
// the paper's implementation).
type CosPower struct {
	q float64
	// MinField floors the field amplitude so no direction is a perfect
	// null (real antennas leak).
	MinField float64
}

// NewCosPower builds a CosPower element whose power pattern is 3 dB down at
// ±hpbw/2.
func NewCosPower(hpbwRad float64) CosPower {
	half := hpbwRad / 2
	c := math.Cos(half)
	if c <= 0 || c >= 1 {
		return CosPower{q: 1, MinField: 0.01}
	}
	// cos^{2q}(half) = 1/2  =>  2q = ln(1/2)/ln(cos half)
	q := math.Log(0.5) / (2 * math.Log(c))
	return CosPower{q: q, MinField: 0.01}
}

// Field implements Element.
func (e CosPower) Field(theta float64) complex128 {
	c := math.Cos(theta)
	if c <= 0 {
		return complex(e.MinField, 0)
	}
	v := math.Pow(c, e.q)
	if v < e.MinField {
		v = e.MinField
	}
	return complex(v, 0)
}

// ULA is a uniform linear array of identical elements along the array axis,
// with per-element complex excitation weights. Element n sits at position
// n*SpacingWl wavelengths.
type ULA struct {
	Elem Element
	// SpacingWl is the inter-element spacing in wavelengths.
	SpacingWl float64
	// Weights holds each element's complex excitation (amplitude & phase).
	Weights []complex128
}

// NewULA builds an n-element array with the given spacing (wavelengths) and
// uniform in-phase excitation.
func NewULA(elem Element, n int, spacingWl float64) *ULA {
	w := make([]complex128, n)
	for i := range w {
		w[i] = 1
	}
	return &ULA{Elem: elem, SpacingWl: spacingWl, Weights: w}
}

// ArrayFactor returns the unnormalized complex array factor toward theta:
// AF(θ) = Σ_n w_n e^{j 2π n d sinθ}.
func (u *ULA) ArrayFactor(theta float64) complex128 {
	af, _ := arrayFactors(u.progression(theta), u.Weights, nil)
	return af
}

// Field returns the total complex field toward theta: element pattern times
// array factor, normalized so the maximum possible |field| is 1 (achieved
// when all element contributions align at an element-pattern peak).
func (u *ULA) Field(theta float64) complex128 {
	norm := weightNorm(u.Weights)
	if norm == 0 {
		return 0
	}
	return u.Elem.Field(theta) * u.ArrayFactor(theta) / complex(norm, 0)
}

// progression is the phase step between neighbouring elements toward
// theta: 2π d sinθ.
func (u *ULA) progression(theta float64) float64 {
	return 2 * math.Pi * u.SpacingWl * math.Sin(theta)
}

// arrayFactors sums Σ_n w_n e^{j n·step} for one weight vector, or for two
// of the same length (w1 nil: af1 is 0) with each element phasor computed
// once. It is the one place the array formula is written: ULA.ArrayFactor
// and BeamPair.FieldGains both run it, so the two agree bit for bit.
func arrayFactors(step float64, w0, w1 []complex128) (af0, af1 complex128) {
	for n, w := range w0 {
		ph := cmplx.Rect(1, step*float64(n))
		af0 += w * ph
		if w1 != nil {
			af1 += w1[n] * ph
		}
	}
	return af0, af1
}

// weightNorm is Σ_n |w_n|, the field of all elements aligned: the
// normalization that caps a ULA's |Field| at 1.
func weightNorm(w []complex128) float64 {
	var norm float64
	for _, x := range w {
		norm += cmplx.Abs(x)
	}
	return norm
}

// SteerTo sets progressive phase weights so the main beam points toward
// theta0 (classic phased-array steering). Amplitudes are preserved.
func (u *ULA) SteerTo(theta0 float64) {
	phasePerElem := -2 * math.Pi * u.SpacingWl * math.Sin(theta0)
	for n := range u.Weights {
		a := cmplx.Abs(u.Weights[n])
		u.Weights[n] = cmplx.Rect(a, phasePerElem*float64(n))
	}
}

// Pattern is any directional gain shape (an antenna viewed from outside).
type Pattern interface {
	// FieldGain returns the complex field gain toward theta, scaled so
	// |FieldGain|² is the power gain relative to isotropic (linear).
	FieldGain(theta float64) complex128
	// PeakGainDBi reports the maximum power gain in dBi.
	PeakGainDBi() float64
}

// FixedBeam wraps a normalized field source (|field| ≤ 1) and scales it to
// a specified peak gain in dBi.
type FixedBeam struct {
	Source interface {
		Field(theta float64) complex128
	}
	// PeakDBi is the power gain at the pattern maximum.
	PeakDBi float64
	// amp is the field amplitude 10^(ampDBi/20) NewFixedBeam computed, so
	// FieldGain does not raise the same power on every call. A literal
	// FixedBeam has none, and one whose PeakDBi was edited since no longer
	// matches ampDBi; both compute the amplitude per call.
	amp, ampDBi float64
}

// NewFixedBeam returns the FixedBeam of source (an element, an array, any
// normalized Field) at peakDBi with its field amplitude computed once. It
// behaves exactly like the struct literal.
func NewFixedBeam(source Element, peakDBi float64) FixedBeam {
	return FixedBeam{Source: source, PeakDBi: peakDBi, amp: math.Pow(10, peakDBi/20), ampDBi: peakDBi}
}

// FieldGain implements Pattern.
func (b FixedBeam) FieldGain(theta float64) complex128 {
	return b.Source.Field(theta) * complex(b.amplitude(), 0)
}

// amplitude is the field amplitude of PeakDBi: the one NewFixedBeam
// cached, or computed now for a literal or edited beam.
func (b FixedBeam) amplitude() float64 {
	if b.amp == 0 || b.ampDBi != b.PeakDBi {
		return math.Pow(10, b.PeakDBi/20)
	}
	return b.amp
}

// PeakGainDBi implements Pattern.
func (b FixedBeam) PeakGainDBi() float64 { return b.PeakDBi }

// GainDB returns a pattern's power gain in dB toward theta.
func GainDB(p Pattern, theta float64) float64 {
	a := cmplx.Abs(p.FieldGain(theta))
	if a <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(a)
}
