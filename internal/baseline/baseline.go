// Package baseline implements the comparator mmX is evaluated against:
// the conventional phased-array radio that must *search* for the best
// beam, with its probe/feedback latency and energy costs (§2/§6), so the
// benches can quantify exactly what OTAM eliminates. The other §9.2
// baseline, the fixed-beam ASK transmitter of the "without OTAM"
// scenario, is core.Evaluation.SNRWithoutOTAM.
package baseline

import (
	"math"

	"mmx/internal/antenna"
	"mmx/internal/channel"
	"mmx/internal/rf"
)

// Codebook is a set of steering directions a phased array can probe.
type Codebook []float64

// UniformCodebook returns n beams evenly covering [-span/2, +span/2]
// radians.
func UniformCodebook(n int, span float64) Codebook {
	cb := make(Codebook, n)
	if n == 1 {
		cb[0] = 0
		return cb
	}
	for i := range cb {
		cb[i] = -span/2 + span*float64(i)/float64(n-1)
	}
	return cb
}

// PhasedArrayNode is the conventional mmWave IoT radio mmX replaces: an
// N-element phased array that steers a single beam and must align it with
// the AP before communicating.
type PhasedArrayNode struct {
	// Elements is the array size (8 in §6's cost discussion).
	Elements int
	// Array is the steerable ULA.
	Array *antenna.ULA
	// PeakGainDBi calibrates the steered beam's peak gain.
	PeakGainDBi float64
	// ProbeDuration is the airtime of one beam probe plus its AP
	// feedback (§6: searching "needs multiple feedbacks from the AP").
	ProbeDuration float64
	// RadioPowerW is the radio's draw while probing (PA + phased array).
	RadioPowerW float64
}

// NewPhasedArrayNode returns the §6 strawman: 8 elements, probe+feedback
// of 100 µs, powered like rf.PhasedArrayRadio.
func NewPhasedArrayNode() *PhasedArrayNode {
	n := rf.PhasedArraySize
	return &PhasedArrayNode{
		Elements:      n,
		Array:         antenna.NewULA(antenna.DefaultPatch(), n, 0.5),
		PeakGainDBi:   10 + 10*math.Log10(float64(n)/2), // larger array, more gain
		ProbeDuration: 100e-6,
		RadioPowerW:   rf.PhasedArrayRadio().PowerW(),
	}
}

// steeredPattern returns the array steered toward theta as a calibrated
// pattern.
func (p *PhasedArrayNode) steeredPattern(theta float64) antenna.Pattern {
	p.Array.SteerTo(theta)
	return antenna.FixedBeam{Source: p.Array, PeakDBi: p.PeakGainDBi}
}

// SearchResult reports one beam-alignment run.
type SearchResult struct {
	// BestTheta is the chosen steering direction (relative to the node's
	// boresight).
	BestTheta float64
	// BestGainDB is the link gain achieved with that beam.
	BestGainDB float64
	// Probes is how many beam/feedback exchanges the search used.
	Probes int
	// Latency is the search's wall-clock time.
	Latency float64
	// EnergyJ is the node energy burned searching.
	EnergyJ float64
}

// linkGainDB evaluates the steered link gain for one probe direction.
func (p *PhasedArrayNode) linkGainDB(env *channel.Environment, node, ap channel.Pose, apPat antenna.Pattern, theta float64) float64 {
	return env.GainDB(node, p.steeredPattern(theta), ap, apPat)
}

// ExhaustiveSearch probes every codebook entry (the classic 802.11ad-style
// sweep, §3: "exhaustively search for the best beam alignment") and picks
// the strongest.
func (p *PhasedArrayNode) ExhaustiveSearch(env *channel.Environment, node, ap channel.Pose, apPat antenna.Pattern, cb Codebook) SearchResult {
	best := math.Inf(-1)
	bestTheta := 0.0
	for _, th := range cb {
		if g := p.linkGainDB(env, node, ap, apPat, th); g > best {
			best = g
			bestTheta = th
		}
	}
	probes := len(cb)
	lat := float64(probes) * p.ProbeDuration
	return SearchResult{
		BestTheta:  bestTheta,
		BestGainDB: best,
		Probes:     probes,
		Latency:    lat,
		EnergyJ:    lat * p.RadioPowerW,
	}
}

// HierarchicalSearch does a two-stage sweep: a coarse pass over sqrt-many
// sectors, then a fine pass inside the winning sector. Fewer probes, same
// hardware burden.
func (p *PhasedArrayNode) HierarchicalSearch(env *channel.Environment, node, ap channel.Pose, apPat antenna.Pattern, cb Codebook) SearchResult {
	if len(cb) <= 2 {
		return p.ExhaustiveSearch(env, node, ap, apPat, cb)
	}
	coarseN := int(math.Ceil(math.Sqrt(float64(len(cb)))))
	stride := len(cb) / coarseN
	if stride < 1 {
		stride = 1
	}
	probes := 0
	bestIdx, best := 0, math.Inf(-1)
	for i := 0; i < len(cb); i += stride {
		probes++
		if g := p.linkGainDB(env, node, ap, apPat, cb[i]); g > best {
			best = g
			bestIdx = i
		}
	}
	lo := bestIdx - stride
	if lo < 0 {
		lo = 0
	}
	hi := bestIdx + stride
	if hi >= len(cb) {
		hi = len(cb) - 1
	}
	bestTheta := cb[bestIdx]
	for i := lo; i <= hi; i++ {
		probes++
		if g := p.linkGainDB(env, node, ap, apPat, cb[i]); g > best {
			best = g
			bestTheta = cb[i]
		}
	}
	lat := float64(probes) * p.ProbeDuration
	return SearchResult{
		BestTheta:  bestTheta,
		BestGainDB: best,
		Probes:     probes,
		Latency:    lat,
		EnergyJ:    lat * p.RadioPowerW,
	}
}
