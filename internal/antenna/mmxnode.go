package antenna

import (
	"math"
	"math/cmplx"
)

// The mmX node's two transmit beams (paper §6.2, §8.1, Fig. 8):
//
//   - Beam 1: two patch antennas excited in phase, spaced one wavelength so
//     the array factor has nulls at ±30°. Its peak is at broadside (0°).
//   - Beam 0: two patch antennas excited 180° out of phase at the same
//     spacing, producing a broadside null and two peaks near ±30°.
//
// The two patterns are orthogonal: each has a null at the other's peak(s).
// OTAM switches the carrier between them to impose ASK over the air.

// NodeBeamSpacingWl is the element spacing, in wavelengths, that places
// Beam 1's array-factor null exactly at ±30° (d·sin30° = λ/2 ⇒ d = λ).
const NodeBeamSpacingWl = 1.0

// NodePeakGainDBi is the node array's peak power gain. The paper radiates
// 10 dBm from a 12 dBm VCO through a <2 dB switch; the two-patch array's
// directive gain is ≈10 dBi.
const NodePeakGainDBi = 10.0

// NewNodeBeam1 returns the broadside beam ("bit 1" beam).
func NewNodeBeam1() *ULA {
	u := NewULA(DefaultPatch(), 2, NodeBeamSpacingWl)
	u.Weights[0] = 1
	u.Weights[1] = 1
	return u
}

// NewNodeBeam0 returns the split ±30° beam with a broadside null
// ("bit 0" beam).
func NewNodeBeam0() *ULA {
	u := NewULA(DefaultPatch(), 2, NodeBeamSpacingWl)
	u.Weights[0] = 1
	u.Weights[1] = -1 // 180° phase difference
	return u
}

// NodeBeams bundles the node's two beams as calibrated gain patterns.
type NodeBeams struct {
	Beam0, Beam1 Pattern
}

// BeamPair is a NodeBeams resolved once for FieldGains calls toward many
// directions. The node's pairs are one array fed two ways (paper §6.2):
// when both beams are FixedBeams over ULAs with the same patch element,
// spacing and element count, the pair keeps the two arrays, their weight
// norms and their amplitudes, and each FieldGains call computes the
// element field, sin θ and the element phasors once for both beams, each
// beam's product keeping FieldGain's operation order. Any other pair
// (the mirrored node's, say) makes the two FieldGain calls.
type BeamPair struct {
	nb           NodeBeams
	elem         Patch
	u0, u1       *ULA // nil: no shared array
	norm0, norm1 float64
	amp0, amp1   float64
}

// Prepare resolves the pair for BeamPair.FieldGains.
func (nb NodeBeams) Prepare() BeamPair {
	p := BeamPair{nb: nb}
	b0, ok0 := nb.Beam0.(FixedBeam)
	b1, ok1 := nb.Beam1.(FixedBeam)
	if !ok0 || !ok1 {
		return p
	}
	u0, ok0 := b0.Source.(*ULA)
	u1, ok1 := b1.Source.(*ULA)
	if !ok0 || !ok1 || u0.SpacingWl != u1.SpacingWl || len(u0.Weights) != len(u1.Weights) || !samePatch(u0.Elem, u1.Elem) {
		return p
	}
	norm0, norm1 := weightNorm(u0.Weights), weightNorm(u1.Weights)
	if norm0 == 0 || norm1 == 0 {
		return p
	}
	p.elem, p.u0, p.u1 = u0.Elem.(Patch), u0, u1
	p.norm0, p.norm1 = norm0, norm1
	p.amp0, p.amp1 = b0.amplitude(), b1.amplitude()
	return p
}

// FieldGains returns both beams' field gains toward theta, bit for bit
// Beam0.FieldGain(theta) and Beam1.FieldGain(theta).
func (p *BeamPair) FieldGains(theta float64) (g0, g1 complex128) {
	if p.u0 == nil {
		return p.nb.Beam0.FieldGain(theta), p.nb.Beam1.FieldGain(theta)
	}
	e := p.elem.Field(theta)
	af0, af1 := arrayFactors(p.u0.progression(theta), p.u0.Weights, p.u1.Weights)
	g0 = e * af0 / complex(p.norm0, 0) * complex(p.amp0, 0)
	g1 = e * af1 / complex(p.norm1, 0) * complex(p.amp1, 0)
	return g0, g1
}

// samePatch reports whether a and b are equal Patch elements — the
// element every pair builder uses — so one Field call serves both beams.
// Any other element takes FieldGains' fallback.
func samePatch(a, b Element) bool {
	pa, okA := a.(Patch)
	pb, okB := b.(Patch)
	return okA && okB && pa == pb
}

// NewNodeBeams builds the orthogonal pair used by every mmX node.
func NewNodeBeams() NodeBeams {
	return NodeBeams{
		Beam0: NewFixedBeam(NewNodeBeam0(), NodePeakGainDBi),
		Beam1: NewFixedBeam(NewNodeBeam1(), NodePeakGainDBi),
	}
}

// NewNonOrthogonalBeams builds the strawman of Fig. 5(a): two steered
// beams pointing at +20° and -20° with no mutual nulls. Used by the
// ablation benches to show why orthogonality matters.
func NewNonOrthogonalBeams() NodeBeams {
	left := NewULA(DefaultPatch(), 2, 0.5)
	left.SteerTo(-20 * math.Pi / 180)
	right := NewULA(DefaultPatch(), 2, 0.5)
	right.SteerTo(20 * math.Pi / 180)
	return NodeBeams{
		Beam0: NewFixedBeam(left, NodePeakGainDBi),
		Beam1: NewFixedBeam(right, NodePeakGainDBi),
	}
}

// APAntennaGainDBi and APAntennaHPBW describe the AP's fabricated dipole
// (paper §8.2: 5 dB gain, 62° 3-dB beamwidth).
const (
	APAntennaGainDBi = 5.0
	APAntennaHPBWDeg = 62.0
)

// NewAPAntenna returns the access point's receive antenna pattern.
func NewAPAntenna() Pattern {
	return NewFixedBeam(NewCosPower(APAntennaHPBWDeg*math.Pi/180), APAntennaGainDBi)
}

// PatternCut samples a pattern's power gain (dB) over [-π, π) at n evenly
// spaced azimuths, returning the angles (radians) and gains. This is the
// data behind Fig. 8.
func PatternCut(p Pattern, n int) (thetas, gainsDB []float64) {
	thetas = make([]float64, n)
	gainsDB = make([]float64, n)
	for i := 0; i < n; i++ {
		th := -math.Pi + 2*math.Pi*float64(i)/float64(n)
		thetas[i] = th
		gainsDB[i] = GainDB(p, th)
	}
	return thetas, gainsDB
}

// HalfPowerBeamwidth returns the width (radians) of the main lobe around
// peakTheta at which the power pattern first falls 3 dB below the peak on
// each side, searching outward with the given resolution.
func HalfPowerBeamwidth(p Pattern, peakTheta float64) float64 {
	peak := cmplx.Abs(p.FieldGain(peakTheta))
	if peak == 0 {
		return 0
	}
	target := peak / math.Sqrt2 // -3 dB in power
	step := 0.001
	var left, right float64
	for d := step; d < math.Pi; d += step {
		if cmplx.Abs(p.FieldGain(peakTheta+d)) < target {
			right = d
			break
		}
	}
	for d := step; d < math.Pi; d += step {
		if cmplx.Abs(p.FieldGain(peakTheta-d)) < target {
			left = d
			break
		}
	}
	return left + right
}

// FindPeaks returns the azimuths (radians, sorted) of local maxima of the
// power pattern that are within floorDB of the global peak, sampled at n
// points across [-π, π).
func FindPeaks(p Pattern, n int, floorDB float64) []float64 {
	if n < 8 {
		n = 8
	}
	g := make([]float64, n)
	th := make([]float64, n)
	best := math.Inf(-1)
	for i := 0; i < n; i++ {
		th[i] = -math.Pi + 2*math.Pi*float64(i)/float64(n)
		g[i] = GainDB(p, th[i])
		if g[i] > best {
			best = g[i]
		}
	}
	var peaks []float64
	for i := 0; i < n; i++ {
		prev := g[(i-1+n)%n]
		next := g[(i+1)%n]
		if g[i] > prev && g[i] >= next && g[i] >= best-floorDB {
			peaks = append(peaks, th[i])
		}
	}
	return peaks
}

// NullDepthAt returns how far below a pattern's global peak (in dB, as a
// positive number) its response at theta sits. Large values indicate a
// null.
func NullDepthAt(p Pattern, theta float64, n int) float64 {
	best := math.Inf(-1)
	for i := 0; i < n; i++ {
		th := -math.Pi + 2*math.Pi*float64(i)/float64(n)
		if g := GainDB(p, th); g > best {
			best = g
		}
	}
	return best - GainDB(p, theta)
}

// Orthogonality measures how well two beams avoid each other: the minimum,
// over each beam's peak directions, of the other beam's null depth there
// (dB). The mmX pair scores high; the non-orthogonal strawman scores low.
func Orthogonality(a, b Pattern) float64 {
	minDepth := math.Inf(1)
	for _, th := range FindPeaks(a, 2048, 1) {
		if d := NullDepthAt(b, th, 2048); d < minDepth {
			minDepth = d
		}
	}
	for _, th := range FindPeaks(b, 2048, 1) {
		if d := NullDepthAt(a, th, 2048); d < minDepth {
			minDepth = d
		}
	}
	return minDepth
}
