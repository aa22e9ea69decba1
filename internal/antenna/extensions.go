package antenna

import "math"

// Extensions the paper sketches in §9.1:
//
//   - "one can easily extend the node's field of view to the back side of
//     the node by incorporating additional patch antennas" — the mirrored
//     (four-array) node below;
//   - "depending on the use case, one can design narrower beams to improve
//     the range at the cost of narrower field of view" — the N-element
//     narrow-beam node below.

// MirroredSource doubles a front-facing source with an identical array on
// the node's back side; the switch selects whichever array faces the
// target, so the effective field toward θ is the stronger of the two.
type MirroredSource struct {
	Front interface {
		Field(theta float64) complex128
	}
}

// Field implements the pattern-source interface.
func (m MirroredSource) Field(theta float64) complex128 {
	f := m.Front.Field(theta)
	back := theta - math.Pi
	for back <= -math.Pi {
		back += 2 * math.Pi
	}
	b := m.Front.Field(back)
	if magSq(b) > magSq(f) {
		return b
	}
	return f
}

func magSq(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

// NewExtendedNodeBeams returns the four-array node: the standard
// orthogonal pair duplicated on the back side, giving 360° OTAM coverage
// (a node can be mounted in any orientation).
func NewExtendedNodeBeams() NodeBeams {
	return NodeBeams{
		Beam0: NewFixedBeam(MirroredSource{Front: NewNodeBeam0()}, NodePeakGainDBi),
		Beam1: NewFixedBeam(MirroredSource{Front: NewNodeBeam1()}, NodePeakGainDBi),
	}
}

// NewNarrowNodeBeams returns a higher-gain variant of the node's beam pair
// built from elems in-phase elements (elems ≥ 2, rounded up to even). The
// element spacing keeps Beam 1's first array-factor null at ±30° (spacing
// = 2/elems wavelengths ⇒ elems·d·sin30° = 1), so Beam 0's ±30° lobes stay
// orthogonal to it, while the larger aperture narrows the main lobe and
// raises the peak gain by 10·log10(elems/2) dB — longer range, smaller
// field of view.
func NewNarrowNodeBeams(elems int) NodeBeams {
	if elems < 2 {
		elems = 2
	}
	if elems%2 == 1 {
		elems++
	}
	spacing := 2.0 / float64(elems)
	gain := NodePeakGainDBi + 10*math.Log10(float64(elems)/2)

	b1 := NewULA(DefaultPatch(), elems, spacing)
	// Beam 0: halves driven in antiphase (first half +, second half −)
	// keeps the broadside null while its energy moves out to the sides.
	b0 := NewULA(DefaultPatch(), elems, spacing)
	for i := range b0.Weights {
		if i >= elems/2 {
			b0.Weights[i] = -1
		}
	}
	return NodeBeams{
		Beam0: NewFixedBeam(b0, gain),
		Beam1: NewFixedBeam(b1, gain),
	}
}

// FieldOfView returns the contiguous azimuth span (radians) around
// boresight within which the better of the two beams stays within
// marginDB of the pair's global peak — the angular range where OTAM links
// remain near full strength.
func FieldOfView(nb NodeBeams, marginDB float64, samples int) float64 {
	if samples < 16 {
		samples = 16
	}
	peak := math.Inf(-1)
	best := make([]float64, samples)
	th := make([]float64, samples)
	for i := 0; i < samples; i++ {
		th[i] = -math.Pi + 2*math.Pi*float64(i)/float64(samples)
		g0 := GainDB(nb.Beam0, th[i])
		g1 := GainDB(nb.Beam1, th[i])
		best[i] = math.Max(g0, g1)
		if best[i] > peak {
			peak = best[i]
		}
	}
	// Walk outward from boresight until the better beam drops below the
	// margin on each side.
	step := 2 * math.Pi / float64(samples)
	span := 0.0
	mid := samples / 2 // θ ≈ 0
	for i := mid; i < samples && best[i] >= peak-marginDB; i++ {
		span += step
	}
	for i := mid - 1; i >= 0 && best[i] >= peak-marginDB; i-- {
		span += step
	}
	return span
}

// CoverageFraction returns the fraction of the full circle within which
// the better beam stays within marginDB of the pair's peak — unlike
// FieldOfView it counts disjoint regions, so it captures the mirrored
// node's back-side coverage.
func CoverageFraction(nb NodeBeams, marginDB float64, samples int) float64 {
	if samples < 16 {
		samples = 16
	}
	peak := math.Inf(-1)
	best := make([]float64, samples)
	for i := 0; i < samples; i++ {
		th := -math.Pi + 2*math.Pi*float64(i)/float64(samples)
		best[i] = math.Max(GainDB(nb.Beam0, th), GainDB(nb.Beam1, th))
		if best[i] > peak {
			peak = best[i]
		}
	}
	covered := 0
	for _, g := range best {
		if g >= peak-marginDB {
			covered++
		}
	}
	return float64(covered) / float64(samples)
}
