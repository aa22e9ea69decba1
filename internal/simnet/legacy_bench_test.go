package simnet

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/stats"
	"mmx/internal/units"
)

// couplingDB returns how many dB below its carrier node j's power lands in
// node i's receiver: frequency separation for FDM, TMA harmonic leakage
// for co-channel SDM pairs, and nothing at all — 0 dB, full collision —
// for overlapping channels with no SDM party (the post-churn bug state;
// earlier revisions granted such pairs phantom TMA suppression). This is
// the reference the production pair kernel is tested against: every edge
// stores FromDB(−couplingDB) for its pair, bit-identical to linearizing
// this value, via the precomputed suppression vectors (pairCouplingLinear).
func (nw *Network) couplingDB(i, j *Node) float64 {
	if c, _, ok := nw.freqCoupling(i, j); ok {
		return c
	}
	if i.AP.idx != j.AP.idx {
		// Cross-AP co-channel: the interferer is not part of the victim
		// AP's TMA schedule, so the array buys no separation — a full
		// collision, mitigated only by distance (the power term).
		return 0
	}
	if !i.Shared && !j.Shared {
		return 0
	}
	// Co-channel at the same AP: separated spatially by that AP's TMA.
	// Leakage is j's energy appearing at i's harmonic relative to j's
	// own harmonic.
	ap := j.AP
	thJ := ap.Pose.AngleTo(j.Pose.Pos)
	own := cmplx.Abs(ap.SDM.HarmonicGain(j.SDMHarmonic, thJ))
	leak := cmplx.Abs(ap.SDM.HarmonicGain(i.SDMHarmonic, thJ))
	return tmaSuppressionDB(own, leak)
}

// legacyEvaluateSINR replicates the pre-cache evaluation engine exactly:
// serial link evaluations and a fresh couplingDB call for every ordered
// node pair on every invocation. It is the oracle of
// TestCachedEngineMatchesLegacy and the old cost model that
// BenchmarkSINREngine measures the cached engine against.
func legacyEvaluateSINR(nw *Network) []Report {
	evals := make([]core.Evaluation, len(nw.Nodes))
	powers := make([]float64, len(nw.Nodes))
	for i, n := range nw.Nodes {
		evals[i] = nw.evaluate(n, n.AP)
		g := math.Max(cmplx.Abs(evals[i].G0), cmplx.Abs(evals[i].G1))
		powers[i] = g * g
	}
	out := make([]Report, len(nw.Nodes))
	for i, node := range nw.Nodes {
		noise := evals[i].NoisePowerW
		interf := 0.0
		for j, other := range nw.Nodes {
			if i == j {
				continue
			}
			interf += powers[j] * units.FromDB(-nw.couplingDB(node, other))
		}
		sinr := units.DB(powers[i] / (noise + interf))
		ev := evals[i]
		ev.SNRWithOTAM = sinr
		out[i] = Report{
			ID: node.ID, SNRdB: units.DB(powers[i] / noise), SINRdB: sinr,
			BER: ev.BERWithOTAM(), PathClass: nw.Env.BestPathClass(node.Pose.Pos, nw.APs[0].Pose.Pos),
			SDM: node.Shared,
		}
	}
	return out
}

// denseEvaluateSINR is the dense n×n evaluation the engine replaced, kept
// as its oracle: every link re-evaluated, every ordered pair weighted by
// the pair kernel, summed in membership order. A victim listens at its
// serving AP, so each interferer counts with its power at that AP: the
// serving-link power for a co-served source, crossPower for the others.
// Crashed nodes put no carrier on the air and report the down sentinel.
func denseEvaluateSINR(nw *Network) []Report {
	n, nAPs := len(nw.Nodes), len(nw.APs)
	evals := make([]core.Evaluation, n)
	xp := make([]float64, nAPs*n) // xp[a*n+j]: node j's peak received power at AP a
	for j, node := range nw.Nodes {
		if node.Down {
			continue
		}
		evals[j] = nw.evaluate(node, node.AP)
		g := math.Max(cmplx.Abs(evals[j].G0), cmplx.Abs(evals[j].G1))
		for a := 0; a < nAPs; a++ {
			if a == node.AP.idx {
				xp[a*n+j] = g * g
			} else {
				xp[a*n+j] = nw.crossPower(node, a)
			}
		}
	}
	out := make([]Report, n)
	for i, node := range nw.Nodes {
		if node.Down {
			out[i] = Report{ID: node.ID, SNRdB: math.Inf(-1), SINRdB: math.Inf(-1), BER: 1, PathClass: "down", SDM: node.Shared}
			continue
		}
		row := xp[node.AP.idx*n:]
		noise, interf := evals[i].NoisePowerW, 0.0
		for j, other := range nw.Nodes {
			if i != j {
				interf += row[j] * nw.pairCouplingLinear(node, other)
			}
		}
		sinr := units.DB(row[i] / (noise + interf))
		ev := evals[i]
		ev.SNRWithOTAM = sinr
		out[i] = Report{
			ID: node.ID, SNRdB: units.DB(row[i] / noise), SINRdB: sinr,
			BER: ev.BERWithOTAM(), PathClass: ev.PathClass, SDM: node.Shared,
		}
	}
	return out
}

// pairSuppressionDB returns the worse-direction TMA suppression between
// two co-channel transmitters at the same AP: how far each one's energy
// sits below the other's slot, given their harmonics and their gain
// tables at that AP's array.
func pairSuppressionDB(mi int, tblI []complex128, mj int, tblJ []complex128) float64 {
	maxM := (len(tblI) - 1) / 2
	a := tmaSuppressionDB(cmplx.Abs(tblJ[mj+maxM]), cmplx.Abs(tblJ[mi+maxM])) // j leaking into i's slot
	b := tmaSuppressionDB(cmplx.Abs(tblI[mi+maxM]), cmplx.Abs(tblI[mj+maxM])) // i leaking into j's slot
	return math.Min(a, b)
}

// servingTables traces, per member, the gain table its serving AP's TMA
// has at its angle of arrival — what the node's avec was derived from.
func servingTables(nw *Network) map[*Node][]complex128 {
	tbls := make(map[*Node][]complex128, len(nw.Nodes))
	for _, n := range nw.Nodes {
		tbls[n] = n.AP.SDM.GainTable(n.AP.Pose.AngleTo(n.Pose.Pos))
	}
	return tbls
}

// denseBestHostChannel is the all-members host-channel scan the indexed
// bestHostChannel replaced, kept as its oracle: per channel live at ap,
// the worst pairwise suppression against the newcomer (harmonic h, gain
// table tbl) over the nodes ap serves (exclude skipped), each with its
// gain table from tbls, then the best channel by (suppression, fewer
// occupants, lower center).
func denseBestHostChannel(nw *Network, ap *AccessPoint, h int, tbl []complex128, tbls map[*Node][]complex128, exclude uint32) (float64, bool) {
	type chanInfo struct {
		worstSupp float64
		occupants int
	}
	byCenter := map[float64]*chanInfo{}
	for _, n := range nw.Nodes {
		if n.ID == exclude || n.AP != ap {
			continue
		}
		ci := byCenter[n.Assignment.CenterHz]
		if ci == nil {
			ci = &chanInfo{worstSupp: math.Inf(1)}
			byCenter[n.Assignment.CenterHz] = ci
		}
		ci.worstSupp = math.Min(ci.worstSupp, pairSuppressionDB(h, tbl, n.SDMHarmonic, tbls[n]))
		ci.occupants++
	}
	bestCenter, found := 0.0, false
	var best chanInfo
	for c, ci := range byCenter {
		better := !found ||
			ci.worstSupp > best.worstSupp ||
			(ci.worstSupp == best.worstSupp && ci.occupants < best.occupants) ||
			(ci.worstSupp == best.worstSupp && ci.occupants == best.occupants && c < bestCenter)
		if better {
			bestCenter, best, found = c, *ci, true
		}
	}
	return bestCenter, found
}

func newBenchNetwork(b *testing.B, size int) *Network {
	env := channel.NewEnvironment(channel.NewLabRoom(stats.NewRNG(2)), units.ISM24GHzCenter)
	ap := channel.Pose{Pos: channel.Vec2{X: 0.3, Y: 2}}
	nw := New(env, ap, 3)
	for i := 1; i <= size; i++ {
		x := 1 + float64(i%5)
		y := 0.5 + float64(i%4)*0.8
		orient := math.Atan2(ap.Pos.Y-y, ap.Pos.X-x)
		pose := channel.Pose{Pos: channel.Vec2{X: x, Y: y}, Orientation: orient, Height: 0}
		if _, err := nw.Join(uint32(i), pose, 10e6, HDCamera(8)); err != nil {
			b.Fatal(err)
		}
	}
	return nw
}

// BenchmarkSINREngine pits the engine's settled, cached evaluation
// against the legacy per-pair path at each scale.
func BenchmarkSINREngine(b *testing.B) {
	for _, size := range []int{20, 100, 500} {
		nw := newBenchNetwork(b, size)
		b.Run(sizeName("cached", size), func(b *testing.B) {
			nw.Workers = 1
			for i := 0; i < b.N; i++ {
				nw.EvaluateSINR()
			}
		})
		b.Run(sizeName("legacy", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				legacyEvaluateSINR(nw)
			}
		})
	}
}

func sizeName(kind string, size int) string {
	return kind + "/nodes=" + itoa(size)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestCachedEngineMatchesLegacy pins the optimization contract: the
// engine (linearized edge weights, shared path enumeration, cached
// reports, worker fan-out) must reproduce the legacy per-pair engine's
// reports — identity exactly, figures to ≤1e-12, since the engine sums a
// victim's interference in edge order — through blocker motion and churn.
func TestCachedEngineMatchesLegacy(t *testing.T) {
	nw := newBenchTestNetwork(t, 40)
	check := func(stage string) {
		t.Helper()
		want := legacyEvaluateSINR(nw)
		for _, workers := range []int{1, 8} {
			nw.Workers = workers
			assertReportsClose(t, nw.EvaluateSINR(), want, 1e-12, fmt.Sprintf("%s workers=%d", stage, workers))
		}
	}
	check("initial")
	nw.Env.Step(0.5) // blockers move; edges stay, moved links re-evaluate
	check("after env step")
	nw.Leave(3) // owner leave + possible promotion
	nw.Leave(27)
	check("after churn")
}

func newBenchTestNetwork(t *testing.T, size int) *Network {
	t.Helper()
	env := channel.NewEnvironment(channel.NewLabRoom(stats.NewRNG(2)), units.ISM24GHzCenter)
	ap := channel.Pose{Pos: channel.Vec2{X: 0.3, Y: 2}}
	nw := New(env, ap, 3)
	for i := 1; i <= size; i++ {
		x := 1 + float64(i%5)
		y := 0.5 + float64(i%4)*0.8
		orient := math.Atan2(ap.Pos.Y-y, ap.Pos.X-x)
		pose := channel.Pose{Pos: channel.Vec2{X: x, Y: y}, Orientation: orient, Height: 0}
		if _, err := nw.Join(uint32(i), pose, 10e6, HDCamera(8)); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}
