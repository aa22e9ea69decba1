package baseline

import (
	"math"
	"testing"

	"mmx/internal/antenna"
	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/stats"
	"mmx/internal/units"
)

func testScene(seed uint64) (*channel.Environment, channel.Pose, channel.Pose, antenna.Pattern) {
	rng := stats.NewRNG(seed)
	env := channel.NewEnvironment(channel.NewRoom(10, 6, rng), units.ISM24GHzCenter)
	node := channel.Pose{Pos: channel.Vec2{X: 1, Y: 3}}
	ap := channel.Pose{Pos: channel.Vec2{X: 6, Y: 4.5}, Orientation: math.Pi}
	return env, node, ap, antenna.NewAPAntenna()
}

func TestUniformCodebook(t *testing.T) {
	cb := UniformCodebook(5, math.Pi)
	if len(cb) != 5 {
		t.Fatal("size")
	}
	if cb[0] != -math.Pi/2 || cb[4] != math.Pi/2 || cb[2] != 0 {
		t.Errorf("codebook = %v", cb)
	}
	if got := UniformCodebook(1, math.Pi); got[0] != 0 {
		t.Error("single-entry codebook should be boresight")
	}
}

func TestExhaustiveSearchFindsAP(t *testing.T) {
	env, node, ap, apPat := testScene(1)
	p := NewPhasedArrayNode()
	cb := UniformCodebook(32, units.Deg2Rad(120))
	res := p.ExhaustiveSearch(env, node, ap, apPat, cb)
	// The AP sits at atan2(1.5, 5) ≈ 16.7° from the node's boresight;
	// the chosen beam should be within one codebook step of that.
	wantTheta := math.Atan2(1.5, 5)
	step := units.Deg2Rad(120) / 31
	if math.Abs(res.BestTheta-wantTheta) > 1.5*step {
		t.Errorf("best beam at %.1f°, want ≈%.1f°",
			units.Rad2Deg(res.BestTheta), units.Rad2Deg(wantTheta))
	}
	if res.Probes != 32 {
		t.Errorf("probes = %d", res.Probes)
	}
	if res.Latency != 32*p.ProbeDuration {
		t.Errorf("latency = %g", res.Latency)
	}
	if res.EnergyJ <= 0 {
		t.Error("search must cost energy")
	}
}

func TestHierarchicalSearchCheaperSimilarGain(t *testing.T) {
	env, node, ap, apPat := testScene(2)
	p := NewPhasedArrayNode()
	cb := UniformCodebook(64, units.Deg2Rad(120))
	ex := p.ExhaustiveSearch(env, node, ap, apPat, cb)
	hi := p.HierarchicalSearch(env, node, ap, apPat, cb)
	if hi.Probes >= ex.Probes {
		t.Errorf("hierarchical probes %d not fewer than %d", hi.Probes, ex.Probes)
	}
	if hi.BestGainDB < ex.BestGainDB-3 {
		t.Errorf("hierarchical gain %.1f way below exhaustive %.1f",
			hi.BestGainDB, ex.BestGainDB)
	}
	// Tiny codebooks fall through to exhaustive.
	small := UniformCodebook(2, 1)
	if got := p.HierarchicalSearch(env, node, ap, apPat, small); got.Probes != 2 {
		t.Errorf("small codebook probes = %d", got.Probes)
	}
}

func TestSearchEnergyScalesWithCodebook(t *testing.T) {
	env, node, ap, apPat := testScene(3)
	p := NewPhasedArrayNode()
	e16 := p.ExhaustiveSearch(env, node, ap, apPat, UniformCodebook(16, 2)).EnergyJ
	e64 := p.ExhaustiveSearch(env, node, ap, apPat, UniformCodebook(64, 2)).EnergyJ
	if math.Abs(e64/e16-4) > 1e-9 {
		t.Errorf("energy ratio = %g, want 4", e64/e16)
	}
}

func TestFixedBeamSNRFacingVsRotated(t *testing.T) {
	rng := stats.NewRNG(4)
	env := channel.NewEnvironment(channel.NewRoom(10, 6, rng), units.ISM24GHzCenter)
	ap := channel.Pose{Pos: channel.Vec2{X: 6, Y: 3}, Orientation: math.Pi}
	facing := channel.Pose{Pos: channel.Vec2{X: 1, Y: 3}}
	rotated := facing
	rotated.Orientation = units.Deg2Rad(30) // AP lands in Beam 1's null
	// The "without OTAM" SNR: Beam 1 alone carries conventional ASK.
	sf := core.NewLink(env, facing, ap).Evaluate().SNRWithoutOTAM
	sr := core.NewLink(env, rotated, ap).Evaluate().SNRWithoutOTAM
	if sf < 20 {
		t.Errorf("facing fixed-beam SNR = %.1f, want strong", sf)
	}
	if sf-sr < 10 {
		t.Errorf("null rotation only cost %.1f dB, want >10", sf-sr)
	}
}

func TestPhasedArrayBeatsFixedBeamWhenRotated(t *testing.T) {
	// The point of beam search: a steerable array recovers the rotated
	// geometry that kills a fixed beam — at the cost of probes, latency,
	// and a power-hungry radio. (OTAM gets robustness without either.)
	rng := stats.NewRNG(5)
	env := channel.NewEnvironment(channel.NewRoom(10, 6, rng), units.ISM24GHzCenter)
	ap := channel.Pose{Pos: channel.Vec2{X: 6, Y: 3}, Orientation: math.Pi}
	node := channel.Pose{Pos: channel.Vec2{X: 1, Y: 3}, Orientation: units.Deg2Rad(30)}
	p := NewPhasedArrayNode()
	res := p.ExhaustiveSearch(env, node, ap, antenna.NewAPAntenna(), UniformCodebook(32, units.Deg2Rad(120)))
	beams := antenna.NewNodeBeams()
	fixedGain := env.GainDB(node, beams.Beam1, ap, antenna.NewAPAntenna())
	if res.BestGainDB < fixedGain+10 {
		t.Errorf("searched gain %.1f vs fixed %.1f: search should win big",
			res.BestGainDB, fixedGain)
	}
}
