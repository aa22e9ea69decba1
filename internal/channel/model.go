package channel

import (
	"math"
	"math/cmplx"

	"mmx/internal/antenna"
	"mmx/internal/units"
)

// PathGain returns the complex field gain contributed by one path between
// a transmit antenna (pose + pattern) and a receive antenna: the product
// of both patterns' field gains at the path's departure/arrival angles,
// the free-space amplitude decay λ/(4πd), the reflection and blockage
// losses, and the carrier phase accumulated over the path length.
func (e *Environment) PathGain(p Path, txPose Pose, txPat antenna.Pattern, rxPose Pose, rxPat antenna.Pattern) complex128 {
	if p.Length <= 0 {
		return 0
	}
	dep, arr, phasor := e.pathTerms(&p, txPose, rxPose, units.Wavelength(e.FreqHz))
	return txPat.FieldGain(dep) * rxPat.FieldGain(arr) * phasor
}

// pathTerms is what one path of positive length contributes apart from the
// two antenna patterns: its departure and arrival angles relative to the
// antennas' orientations, and its carrier phasor — the free-space,
// elevation and excess-loss amplitude at the phase accumulated over the
// path. PathGain and BeamGainsWithClass both read a path through it.
func (e *Environment) pathTerms(p *Path, txPose, rxPose Pose, lambda float64) (dep, arr float64, phasor complex128) {
	dep = wrap(p.DepartureAngle - txPose.Orientation)
	arr = wrap(p.ArrivalAngle - rxPose.Orientation)

	// 2.5-D: a height difference lengthens the path and tilts both
	// antennas' elevation patterns.
	length := p.Length
	elevFactor := 1.0
	if dh := rxPose.Height - txPose.Height; dh != 0 {
		length = math.Hypot(p.Length, dh)
		elev := math.Atan2(math.Abs(dh), p.Length)
		elevFactor = elevationGain(elev, e.TxElevationHPBW) *
			elevationGain(elev, e.RxElevationHPBW)
	}

	amp := lambda / (4 * math.Pi * length) * elevFactor
	amp *= math.Pow(10, -p.ExcessLossDB()/20)
	return dep, arr, cmplx.Rect(amp, -2*math.Pi*length/lambda)
}

// elevationGain returns the field-amplitude factor of a cos-power
// elevation pattern with the given half-power beamwidth at an elevation
// offset from broadside. hpbw <= 0 disables the factor.
func elevationGain(elev, hpbw float64) float64 {
	if hpbw <= 0 {
		return 1
	}
	c := math.Cos(elev)
	if c <= 0 {
		return 0.01
	}
	half := hpbw / 2
	ch := math.Cos(half)
	if ch <= 0 || ch >= 1 {
		return 1
	}
	q := math.Log(0.5) / (2 * math.Log(ch))
	g := math.Pow(c, q)
	if g < 0.01 {
		g = 0.01
	}
	return g
}

// Gain returns the total complex channel gain between two placed antennas:
// the coherent sum over all propagation paths. |Gain|² is the power gain
// of the link (linear), including both antenna gains.
func (e *Environment) Gain(txPose Pose, txPat antenna.Pattern, rxPose Pose, rxPat antenna.Pattern) complex128 {
	s := pathScratchPool.Get().(*pathScratch)
	s.out, s.backing = e.appendPaths(txPose.Pos, rxPose.Pos, s.out, s.backing)
	var h complex128
	for _, p := range s.out {
		h += e.PathGain(p, txPose, txPat, rxPose, rxPat)
	}
	pathScratchPool.Put(s)
	return h
}

// GainDB returns the link power gain in dB (−Inf if no energy arrives).
func (e *Environment) GainDB(txPose Pose, txPat antenna.Pattern, rxPose Pose, rxPat antenna.Pattern) float64 {
	a := cmplx.Abs(e.Gain(txPose, txPat, rxPose, rxPat))
	if a <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(a)
}

// BeamGains evaluates the channel for the node's two OTAM beams — the
// pair of complex gains (h0 for Beam 0, h1 for Beam 1) whose magnitude
// difference IS the over-the-air ASK modulation depth.
func (e *Environment) BeamGains(nodePose Pose, beams antenna.NodeBeams, apPose Pose, apPat antenna.Pattern) (h0, h1 complex128) {
	h0, h1, _ = e.BeamGainsWithClass(nodePose, beams, apPose, apPat)
	return h0, h1
}

// BeamGainsWithClass evaluates both OTAM beams and classifies the
// propagation regime from a single path enumeration. Everything about a
// path that does not depend on the transmit beam — the AP-side field gain
// and the path's angles and carrier phasor (pathTerms, as in PathGain) —
// is computed once and shared by the two beams, and the two node-beam
// gains come from one BeamPair.FieldGains call (one array fed two ways),
// the pair prepared once for all paths.
// Each beam's product is then formed in PathGain's own order,
// (tx·rx)·phasor, so h0 and h1 are bit-identical to Gain(Beam0) and
// Gain(Beam1), and the class matches BestPathClass. Ray tracing dominates
// a link evaluation, which is why the enumeration is shared too.
func (e *Environment) BeamGainsWithClass(nodePose Pose, beams antenna.NodeBeams, apPose Pose, apPat antenna.Pattern) (h0, h1 complex128, class string) {
	s := pathScratchPool.Get().(*pathScratch)
	s.out, s.backing = e.appendPaths(nodePose.Pos, apPose.Pos, s.out, s.backing)
	lambda := units.Wavelength(e.FreqHz)
	pair := beams.Prepare()
	for i := range s.out {
		p := &s.out[i]
		if p.Length <= 0 {
			continue // PathGain contributes 0
		}
		dep, arr, phasor := e.pathTerms(p, nodePose, apPose, lambda)
		rx := apPat.FieldGain(arr)
		g0, g1 := pair.FieldGains(dep)
		h0 += g0 * rx * phasor
		h1 += g1 * rx * phasor
	}
	class = pathClass(s.out)
	pathScratchPool.Put(s)
	return h0, h1, class
}

// BestPathClass summarizes the dominant propagation regime between two
// points, ignoring antennas: "los", "nlos" (LoS blocked but a reflection
// survives), or "blocked" (everything crosses a blocker).
func (e *Environment) BestPathClass(tx, rx Vec2) string {
	s := pathScratchPool.Get().(*pathScratch)
	s.out, s.backing = e.appendPaths(tx, rx, s.out, s.backing)
	class := pathClass(s.out)
	pathScratchPool.Put(s)
	return class
}

func pathClass(paths []Path) string {
	if len(paths) == 0 {
		return "blocked"
	}
	losClear := false
	reflClear := false
	for _, p := range paths {
		if p.Reflections == 0 && p.BlockageLossDB == 0 {
			losClear = true
		}
		if p.Reflections > 0 && p.BlockageLossDB == 0 {
			reflClear = true
		}
	}
	switch {
	case losClear:
		return "los"
	case reflClear:
		return "nlos"
	default:
		return "blocked"
	}
}
