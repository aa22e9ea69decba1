package simnet

import (
	"fmt"
	"maps"
	"math"
	"math/bits"
	"runtime"
	"testing"
	"unsafe"

	"mmx/internal/channel"
	"mmx/internal/faults"
	"mmx/internal/mac"
	"mmx/internal/stats"
	"mmx/internal/tma"
	"mmx/internal/units"
)

// exactCutoffDB prunes nothing in a room-sized deployment: at −200 dB
// below the noise floor the admission threshold is under any pair's
// conservative power bound, so a CouplingSparse graph stores every pair
// and runs the pruning screens with zero modeling difference.
const exactCutoffDB = -200

// assertReportsClose compares two report slices: ID, path class and SDM
// role exactly, SNR, SINR and BER within tol (the engine sums a victim's
// interference in edge order, the oracles in membership order, so the
// sums differ only by association).
func assertReportsClose(t *testing.T, got, want []Report, tol float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.PathClass != w.PathClass || g.SDM != w.SDM {
			t.Fatalf("%s node %d: identity mismatch got %+v want %+v", what, w.ID, g, w)
		}
		if !closeOrBothInf(g.SINRdB, w.SINRdB, tol) || !closeOrBothInf(g.SNRdB, w.SNRdB, tol) {
			t.Fatalf("%s node %d: SINR %x SNR %x, want SINR %x SNR %x",
				what, w.ID, g.SINRdB, g.SNRdB, w.SINRdB, w.SNRdB)
		}
		if math.Abs(g.BER-w.BER) > tol {
			t.Fatalf("%s node %d: BER %x, want %x", what, w.ID, g.BER, w.BER)
		}
	}
}

func closeOrBothInf(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

// assertMatchesOracle compares the engine with the dense oracle on the
// same network: every report to ≤1e-12, and for every member at its
// serving AP the host channel the placement would pick — as a re-joiner
// (its own entry excluded) and as a stranger at the same angle — exactly.
func assertMatchesOracle(t *testing.T, nw *Network, what string) {
	t.Helper()
	assertReportsClose(t, nw.EvaluateSINR(), denseEvaluateSINR(nw), 1e-12, what)
	tbls := servingTables(nw)
	for _, n := range nw.Nodes {
		ap := n.AP
		for _, exclude := range []uint32{n.ID, 0} {
			c, ok := nw.core().bestHostChannel(nw, ap, n.SDMHarmonic, n.avec, exclude)
			wc, wok := denseBestHostChannel(nw, ap, n.SDMHarmonic, tbls[n], tbls, exclude)
			if c != wc || ok != wok {
				t.Fatalf("%s: host channel for node %d (exclude %d): %v/%v, oracle %v/%v",
					what, n.ID, exclude, c, ok, wc, wok)
			}
		}
	}
}

// edgeCount is the number of directed pairs the engine stores.
func edgeCount(nw *Network) int {
	e := 0
	for _, n := range nw.Nodes {
		e += len(n.sp.in)
	}
	return e
}

// assertOccMasks checks the occupancy-mask invariant the indexed
// bestHostChannel reads instead of the occupant lists: in every channel of
// every shard, bit k of occMask is set exactly when harmonic slot k holds
// an occupant, and no bit beyond the slots is. It returns how many
// channels had occupants in more than one slot, so a caller can tell a
// scenario that exercised the mask from one that could not.
func assertOccMasks(t *testing.T, nw *Network, what string) (multiSlot int) {
	t.Helper()
	for ai, sh := range nw.sparse.shards {
		for _, cs := range sh.chanList {
			occupied, set := 0, 0
			for k, lst := range cs.occ {
				bit := cs.occMask[k/64]>>(k%64)&1 == 1
				if bit != (len(lst) > 0) {
					t.Fatalf("%s: AP %d channel %.0f Hz slot %d: mask bit %v, %d occupants",
						what, ai, cs.center, k, bit, len(lst))
				}
				if len(lst) > 0 {
					occupied++
				}
			}
			for _, w := range cs.occMask {
				set += bits.OnesCount64(w)
			}
			if set != occupied {
				t.Fatalf("%s: AP %d channel %.0f Hz: %d mask bits set, %d slots occupied", what, ai, cs.center, set, occupied)
			}
			if occupied > 1 {
				multiSlot++
			}
		}
	}
	return multiSlot
}

// applyBoth runs the same mutation on both networks of a pair.
func applyBoth(a, b *Network, fn func(nw *Network)) {
	fn(a)
	fn(b)
}

// randomPose draws a pose anywhere in the lab room's interior.
func randomPose(rng *stats.RNG) channel.Pose {
	pos := channel.Vec2{X: rng.Uniform(1, 5.5), Y: rng.Uniform(0.5, 3.5)}
	return channel.Pose{Pos: pos, Orientation: rng.Uniform(-math.Pi, math.Pi)}
}

// churnPlanStep applies one step of a randomized membership plan — a
// join (always while fewer than four are live), a leave of a random
// member (owner or sharer, so promotions follow) or a move — and returns
// the updated live list.
func churnPlanStep(t *testing.T, nw *Network, rng *stats.RNG, live []uint32, nextID *uint32, demand float64) []uint32 {
	t.Helper()
	switch r := rng.Float64(); {
	case r < 0.5 || len(live) < 4:
		id := *nextID
		*nextID++
		if _, err := nw.Join(id, randomPose(rng), demand, HDCamera(8)); err != nil {
			t.Fatalf("join %d: %v", id, err)
		}
		return append(live, id)
	case r < 0.75:
		k := int(rng.Float64() * float64(len(live)))
		nw.Leave(live[k])
		return append(live[:k], live[k+1:]...)
	default:
		id := live[int(rng.Float64()*float64(len(live)))]
		if !nw.MoveNode(id, randomPose(rng)) {
			t.Fatalf("move missed node %d", id)
		}
		return live
	}
}

// TestSparseMatchesDenseChurnPlan drives a network through a randomized
// membership plan — joins, leaves (owners and sharers), moves, and the
// promotions those leaves trigger — and requires the engine to agree with
// the dense oracle after every event.
func TestSparseMatchesDenseChurnPlan(t *testing.T) {
	nw := newTestNetwork(311)
	rng := stats.NewRNG(99)
	var live []uint32
	nextID := uint32(1)
	// 60 MHz demands exhaust FDM quickly, so the plan exercises SDM
	// sharing, TMA coupling terms and owner-leave promotions.
	for step := 0; step < 120; step++ {
		live = churnPlanStep(t, nw, rng, live, &nextID, 60e6)
		assertMatchesOracle(t, nw, fmt.Sprintf("step %d", step))
		if err := nw.ValidateSpectrum(); err != nil {
			t.Fatalf("step %d: spectrum: %v", step, err)
		}
		assertOccMasks(t, nw, fmt.Sprintf("step %d", step))
	}
}

// TestExactPhaseStoresEveryPair pins CouplingAuto below sparseCrossover:
// after every event of a randomized single-AP plan (joins, leaves,
// moves, promotions) and of a multi-AP run (churn, lossy control, a
// blocker sweep, roams), the graph holds all n(n−1) ordered pairs. Both
// fleets carry far-channel pairs a noise-floor cutoff would drop.
func TestExactPhaseStoresEveryPair(t *testing.T) {
	complete := func(nw *Network, what string) {
		t.Helper()
		if n := len(nw.Nodes); edgeCount(nw) != n*(n-1) {
			t.Fatalf("%s: %d edges stored among %d members, want %d", what, edgeCount(nw), n, n*(n-1))
		}
	}
	nw := newTestNetwork(312)
	rng := stats.NewRNG(98)
	var live []uint32
	nextID := uint32(1)
	for step := 0; step < 150; step++ {
		live = churnPlanStep(t, nw, rng, live, &nextID, 10e6)
		complete(nw, fmt.Sprintf("single-AP step %d", step))
	}

	multi := multiAPNetwork(t, 53, 4)
	multiAPChurnPlan(t, multi, 53, 16, 8, 6)
	events := 0
	multi.OnMembership = func(event string, id uint32) {
		events++
		complete(multi, fmt.Sprintf("multi-AP %s of node %d", event, id))
	}
	st := multi.Run(1.2, 0.05, 10)
	if st.Roams == 0 || st.Joins == 0 || st.Leaves == 0 {
		t.Fatalf("multi-AP plan too tame: %d roams, %d joins, %d leaves", st.Roams, st.Joins, st.Leaves)
	}
	if !multi.sparse.exact {
		t.Fatal("a fleet far below the crossover left the exact phase")
	}
	t.Logf("%d multi-AP events, %d members at the end", events, len(multi.Nodes))
}

// TestSparseDeepCutoffStoresEveryPair is the regression for the disc
// query's cell range at deep cutoffs: at −400 dB or −∞ the audibility
// radius overflows an int (or is +Inf), and an unclamped conversion used
// to leave the victim-side discovery empty — half the pairs missing and
// SINR off from the oracle by up to 17 dB.
func TestSparseDeepCutoffStoresEveryPair(t *testing.T) {
	for _, cut := range []float64{-400, math.Inf(-1)} {
		nw := newTestNetwork(311)
		nw.cutoffDB = cut
		nw.SetCouplingMode(CouplingSparse)
		rng := stats.NewRNG(99)
		for id := uint32(1); id <= 12; id++ {
			if _, err := nw.Join(id, randomPose(rng), 60e6, HDCamera(8)); err != nil {
				t.Fatalf("cutoff %v: join %d: %v", cut, id, err)
			}
		}
		if e := edgeCount(nw); e != 12*11 {
			t.Errorf("cutoff %v: %d of 132 pairs stored", cut, e)
		}
		assertMatchesOracle(t, nw, fmt.Sprintf("cutoff %v", cut))
	}
}

// TestSparseAssignmentsMatchDense pins the indexed bestHostChannel
// against the dense oracle's all-members scan. Every joiner the AP
// rejects into SDM must land on the channel the oracle picks for its
// harmonic and gain table — the assignment itself, not just the answer
// to a query — and after every step the test asks both the placement
// question for every member as a re-joiner (the exclude path: the
// member's own entry must not count against its channel) and as a
// stranger at the same angle, and checks the occupancy masks the indexed
// answer was read from.
func TestSparseAssignmentsMatchDense(t *testing.T) {
	nw := newTestNetwork(1212)
	rng := stats.NewRNG(5)
	multiSlot, shared := 0, 0
	for i := 1; i <= 90; i++ {
		pos := channel.Vec2{X: rng.Uniform(1, 5.5), Y: rng.Uniform(0.5, 3.5)}
		pose := channel.Pose{Pos: pos, Orientation: rng.Uniform(-math.Pi, math.Pi)}
		ap := nw.selectAP(pos)
		tbl := ap.SDM.GainTableInto(nil, ap.Pose.AngleTo(pos))
		want, _ := denseBestHostChannel(nw, ap, tma.BestHarmonicOf(tbl), tbl, servingTables(nw), uint32(i))
		n, err := nw.Join(uint32(i), pose, 40e6, HDCamera(8))
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		if n.Shared {
			shared++
			if n.Assignment.CenterHz != want {
				t.Fatalf("join %d: placed on %.0f Hz, oracle picks %.0f Hz", i, n.Assignment.CenterHz, want)
			}
		}
		if i%7 == 0 { // owner/sharer leaves re-run host selection via promotion
			nw.Leave(uint32(i / 2))
		}
		multiSlot += assertOccMasks(t, nw, fmt.Sprintf("after join %d", i))
		assertMatchesOracle(t, nw, fmt.Sprintf("after join %d", i))
	}
	if multiSlot == 0 || shared == 0 {
		t.Fatalf("%d SDM joins, %d multi-slot channel states: the indexed placement was not exercised", shared, multiSlot)
	}
}

// TestSparseRunMatchesDense runs the full engine — scheduled churn,
// node crash/reboot faults, lease renewals over a perfect side channel,
// blocker motion — and requires it to agree with the dense oracle after
// every membership event and after the run.
func TestSparseRunMatchesDense(t *testing.T) {
	nw := newTestNetwork(77)
	nw.Env.AddBlocker(&channel.Blocker{
		Pos: channel.Vec2{X: 3, Y: 2}, Radius: 0.3, LossDB: 12,
		Vel: channel.Vec2{X: 0.8, Y: -0.5},
	})
	for i := 1; i <= 24; i++ {
		if _, err := nw.Join(uint32(i), churnPose(nw, uint32(i)), 40e6, Telemetry(0.05)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	nw.ScheduleJoin(0.1, 40, churnPose(nw, 40), 40e6, Telemetry(0.05))
	nw.ScheduleJoin(0.25, 41, churnPose(nw, 41), 40e6, Telemetry(0.05))
	nw.ScheduleLeave(0.15, 3) // an FDM owner: promotion path
	nw.ScheduleLeave(0.3, 11)
	nw.Faults = faults.NewPlan().Crash(0.12, 5).Reboot(0.28, 5)
	nw.OnMembership = func(event string, id uint32) {
		assertMatchesOracle(t, nw, fmt.Sprintf("after %s of node %d", event, id))
	}
	st := nw.Run(0.5, 0.05, 10)
	if st.Joins != 2 || st.Leaves != 2 || st.Control.Crashes != 1 || st.Control.Reboots != 1 {
		t.Fatalf("plan did not run: %d joins, %d leaves, control %+v", st.Joins, st.Leaves, st.Control)
	}
	assertMatchesOracle(t, nw, "post-run")
}

// TestSparseAutoCrossover pins the CouplingAuto policy: below the
// crossover the graph is exact; the join that reaches sparseCrossover
// rebuilds it (one-way) at the noise-floor cutoff, after which it matches
// a network that pruned from its first join — the same edges, reports to
// ≤1e-12 — and stays pruned once the fleet shrinks below the crossover.
func TestSparseAutoCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("joins a crossover-sized membership")
	}
	auto := newTestNetwork(900)
	pruned := newTestNetwork(900)
	pruned.SetCouplingMode(CouplingSparse)
	rng := stats.NewRNG(17)
	for i := 1; i <= sparseCrossover; i++ {
		pose := randomPose(rng)
		applyBoth(auto, pruned, func(nw *Network) {
			if _, err := nw.Join(uint32(i), pose, 1e6, Telemetry(5)); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		})
		if i == sparseCrossover-1 && (!auto.sparse.exact || edgeCount(auto) != i*(i-1)) {
			t.Fatalf("below the crossover: exact=%v with %d edges, want every one of %d", auto.sparse.exact, edgeCount(auto), i*(i-1))
		}
	}
	same := func(what string) {
		t.Helper()
		n := len(auto.Nodes)
		if auto.sparse.exact {
			t.Fatalf("%s: auto mode is not pruning", what)
		}
		if e, want := edgeCount(auto), edgeCount(pruned); e != want || e == n*(n-1) {
			t.Fatalf("%s: %d edges, pruned-from-the-start twin %d, all pairs %d", what, e, want, n*(n-1))
		}
		assertReportsClose(t, auto.EvaluateSINR(), pruned.EvaluateSINR(), 1e-12, what)
	}
	same("at the crossover")
	applyBoth(auto, pruned, func(nw *Network) { nw.Leave(5) })
	same("after shrinking below it")
}

// TestSparseCutoffSoundness pins the pruning contract exactly as stated:
// in a field large enough that real pruning happens, every pair the
// sparse core declined to store must have an ACTUAL coupled interference
// power at or below the victim's admission threshold cut·noise — the
// conservative bound may only ever drop pairs that provably don't
// matter. (Cross-check: at least one pair must actually be dropped, or
// the test is vacuous.)
func TestSparseCutoffSoundness(t *testing.T) {
	rng := stats.NewRNG(4)
	// Size the room from the audibility radius itself so the test tracks
	// the bound: half the nodes land outside the disc and carry no edges.
	probe := newTestNetwork(500)
	r := math.Sqrt(probe.sparsePowerBoundConst() / probe.linkTemplate.NoisePowerW())
	side := 2.5 * r
	env := channel.NewEnvironment(channel.NewRoom(side, side, rng), units.ISM24GHzCenter)
	ap := channel.Pose{Pos: channel.Vec2{X: side / 2, Y: side / 2}}
	nw := New(env, ap, 1234)
	nw.SetCouplingMode(CouplingSparse) // default cutoffDB = 0: prune at the noise floor
	// A high-demand cluster around the AP forces SDM sharing and adjacent
	// wide channels — couplings that must survive the cutoff — while the
	// low-demand field population scatters across the full audibility
	// scale, so plenty of pairs fall below it.
	const n = 140
	for i := 1; i <= n; i++ {
		var pos channel.Vec2
		demand := 1e6
		if i <= 40 {
			pos = channel.Vec2{
				X: ap.Pos.X + rng.Uniform(-8, 8),
				Y: ap.Pos.Y + rng.Uniform(-8, 8),
			}
			demand = 40e6
		} else {
			pos = channel.Vec2{X: rng.Uniform(1, side-1), Y: rng.Uniform(1, side-1)}
		}
		pose := channel.Pose{Pos: pos, Orientation: rng.Uniform(-math.Pi, math.Pi)}
		if _, err := nw.Join(uint32(i), pose, demand, Telemetry(5)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	nw.EvaluateSINR() // settle: every node's actual power is current
	stored := make(map[[2]uint32]float64)
	edges := 0
	for _, v := range nw.Nodes {
		for i := range v.sp.in {
			e := v.sp.in[i]
			stored[[2]uint32{v.ID, e.src.ID}] = e.w
			edges++
		}
	}
	total := n * (n - 1)
	if edges == 0 || edges == total {
		t.Fatalf("want genuine pruning: %d of %d directed pairs stored", edges, total)
	}
	t.Logf("stored %d of %d directed pairs (%.1f%%)", edges, total, 100*float64(edges)/float64(total))
	cut := units.FromDB(nw.cutoffDB)
	for _, v := range nw.Nodes {
		threshold := cut * nw.linkCfg(v).NoisePowerW()
		for _, src := range nw.Nodes {
			if src == v {
				continue
			}
			w := nw.pairCouplingLinear(v, src)
			actual := src.sp.power * w
			if _, ok := stored[[2]uint32{v.ID, src.ID}]; ok {
				continue
			}
			if actual > threshold {
				t.Fatalf("dropped pair %d<-%d carries %.3e W, above threshold %.3e W",
					v.ID, src.ID, actual, threshold)
			}
		}
	}
	// The stored edges must hold the exact kernel value, not the bound.
	for key, w := range stored {
		v, src := nw.nodeByID(key[0]), nw.nodeByID(key[1])
		if want := nw.pairCouplingLinear(v, src); w != want {
			t.Fatalf("edge %d<-%d stores w=%x, kernel says %x", key[0], key[1], w, want)
		}
	}
}

// TestSparseInterferenceErrorBounded pins the analytic accuracy claim
// the cutoff derivation makes: per victim, dense interference minus
// sparse interference is non-negative (pruning only removes power) and
// at most dropped_pairs·cut·noise.
func TestSparseInterferenceErrorBounded(t *testing.T) {
	rng := stats.NewRNG(8)
	probe := newTestNetwork(501)
	r := math.Sqrt(probe.sparsePowerBoundConst() / probe.linkTemplate.NoisePowerW())
	side := 2 * r
	env := channel.NewEnvironment(channel.NewRoom(side, side, rng), units.ISM24GHzCenter)
	ap := channel.Pose{Pos: channel.Vec2{X: side / 2, Y: side / 2}}
	nw := New(env, ap, 4321)
	nw.cutoffDB = -20 // prune 20 dB below each victim's noise floor
	nw.SetCouplingMode(CouplingSparse)
	const n = 120
	for i := 1; i <= n; i++ {
		pos := channel.Vec2{X: rng.Uniform(1, side-1), Y: rng.Uniform(1, side-1)}
		pose := channel.Pose{Pos: pos, Orientation: rng.Uniform(-math.Pi, math.Pi)}
		if _, err := nw.Join(uint32(i), pose, 1e6, Telemetry(5)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	nw.EvaluateSINR()
	cut := units.FromDB(nw.cutoffDB)
	for _, v := range nw.Nodes {
		denseInterf := 0.0
		for _, src := range nw.Nodes {
			if src == v {
				continue
			}
			denseInterf += src.sp.power * nw.pairCouplingLinear(v, src)
		}
		dropped := (len(nw.Nodes) - 1) - len(v.sp.in)
		bound := float64(dropped) * cut * nw.linkCfg(v).NoisePowerW()
		sparseInterf := v.interference()
		diff := denseInterf - sparseInterf
		if diff < -1e-12*denseInterf {
			t.Fatalf("node %d: sparse interference exceeds dense (%x > %x)", v.ID, sparseInterf, denseInterf)
		}
		if diff > bound*(1+1e-9) {
			t.Fatalf("node %d: dropped %d pairs lose %.3e W, analytic bound %.3e W",
				v.ID, dropped, diff, bound)
		}
	}
}

// TestSparseDeterminism requires the sparse engine to be a pure function
// of its seeds: two identical runs must agree on every report bit.
func TestSparseDeterminism(t *testing.T) {
	runOnce := func() ([]Report, RunStats) {
		nw := newTestNetwork(272)
		nw.SetCouplingMode(CouplingSparse)
		nw.Workers = 8 // exercise the parallel settle fan-out
		for i := 1; i <= 30; i++ {
			if _, err := nw.Join(uint32(i), churnPose(nw, uint32(i)), 40e6, Telemetry(0.05)); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		nw.ScheduleLeave(0.1, 4)
		nw.ScheduleJoin(0.2, 50, churnPose(nw, 50), 40e6, Telemetry(0.05))
		st := nw.Run(0.4, 0.05, 10)
		return nw.EvaluateSINR(), st
	}
	r1, s1 := runOnce()
	r2, s2 := runOnce()
	if len(r1) != len(r2) {
		t.Fatalf("report counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("node %d: reports differ across identical runs:\n%+v\n%+v", r1[i].ID, r1[i], r2[i])
		}
	}
	if s1.Joins != s2.Joins || s1.Leaves != s2.Leaves || s1.Control != s2.Control {
		t.Fatalf("run stats differ across identical runs")
	}
}

// TestCheckExclusiveOverlapCatchesInjected regression-tests the
// sort-based overlap validator with a hand-built membership: it must
// flag an injected overlap between non-adjacent list entries (the case
// an adjacent-only scan over the UNSORTED list would miss), accept
// exactly abutting channels, and ignore SDM sharers and crashed nodes.
func TestCheckExclusiveOverlapCatchesInjected(t *testing.T) {
	nw := newTestNetwork(88)
	mk := func(id uint32, low, width float64, shared, down bool) *Node {
		n := &Node{Down: down, AP: nw.APs[0]}
		n.ID, n.Shared = id, shared
		n.Assignment = mac.Assignment{NodeID: id, CenterHz: low + width/2, WidthHz: width}
		return n
	}
	clean := []*Node{
		mk(1, 100e6, 25e6, false, false),
		mk(2, 125e6, 25e6, false, false), // exactly abutting: legal
		mk(3, 200e6, 50e6, false, false),
		mk(4, 200e6, 50e6, true, false), // sharer on 3's channel: legal
	}
	if err := nw.checkExclusiveOverlap(clean); err != nil {
		t.Fatalf("clean layout rejected: %v", err)
	}
	overlapped := append([]*Node{mk(9, 110e6, 25e6, false, false)}, clean...)
	if err := nw.checkExclusiveOverlap(overlapped); err == nil {
		t.Fatal("injected overlap not caught")
	}
	// The same overlap on a crashed node transmits nothing: legal.
	masked := append([]*Node{mk(9, 110e6, 25e6, false, true)}, clean...)
	if err := nw.checkExclusiveOverlap(masked); err != nil {
		t.Fatalf("crashed node's stale channel rejected: %v", err)
	}
}

// joinFleet builds a constant-density admission fleet — leases off,
// 1 Mb/s telemetry nodes, a single worker — on a g×g AP grid (a reuse-4
// plan from four APs up) and joins nodes into it.
func joinFleet(tb testing.TB, g, nodes int) *Network {
	side := 6000 * math.Sqrt(float64(nodes)/1000)
	nw := gridAPNetwork(tb, 61, side, g, min(g*g, 4))
	nw.Workers = 1
	nw.SetLeaseTTL(0, 0)
	joinUniform(tb, nw, stats.NewRNG(62), nodes)
	return nw
}

// BenchmarkJoin is admission on its own rung: the 12 000-node fleet built
// once per iteration — Join and nothing else, where every
// BenchmarkNetworkScale rung is two thirds Join and one third Run. With
// 16 APs the field is BenchmarkRegionMap's 4×4 grid.
func BenchmarkJoin(b *testing.B) {
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("aps=%d", g*g), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				joinFleet(b, g, 12000)
			}
		})
	}
}

// TestJoinAllocs bounds admission's allocations and bytes per join on a
// 2 000-node single-AP fleet at Workers=1 — the machine-independent half
// of the BenchmarkNetworkScale rungs, whose allocs/op also count worker
// start-up. The fleet measured 23.32 allocations and 1 588 B per join
// (go1.24, amd64) once a node kept no gain table and the engine no
// Evaluation (a 440 B Node, size class 448); the count bound leaves room
// for the ±0.01 that collections add by emptying the sync.Pool link
// evaluation draws path scratch from, and not for one more allocation per
// join — a per-node gain table coming back is one. The byte bound leaves
// 27 B for that and for toolchains whose maps lay out differently, and
// not for the next Node size class (32 B up) or any per-node object on
// top. The race detector leaks that pool, so both hold without it.
func TestJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under the race detector")
	}
	const nodes, bound, byteBound = 2000, 23.4, 1615
	var bytes uint64
	allocs := testing.AllocsPerRun(1, func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		joinFleet(t, 1, nodes)
		runtime.ReadMemStats(&after)
		bytes = after.TotalAlloc - before.TotalAlloc
	})
	if perJoin := allocs / nodes; perJoin > bound {
		t.Errorf("%.2f allocations per join, want ≤ %.2f", perJoin, bound)
	}
	if perJoin := float64(bytes) / nodes; perJoin > byteBound {
		t.Errorf("%.0f B allocated per join, want ≤ %d", perJoin, byteBound)
	}
}

// FuzzEngineEdges drives byte-chosen join, leave, move, crash, reboot and
// settle sequences through a pruning engine — one AP or four in the lab
// room, at a cutoff of 0 to 49 dB above the noise floor, so the screens
// drop pairs — and checks the edge books after every operation
// (checkEdgeBooks). At the end the stored edge set, weights to the bit,
// must be the one a fresh enterSparse rebuild of the same membership
// stores: the incremental hooks add and drop exactly what discovery from
// scratch would. Each operation takes three bytes: the verb, the node ID
// and a lab position (high and low nibble).
func FuzzEngineEdges(f *testing.F) {
	churn := []byte{0, 1, 0x11, 0, 2, 0xe3, 0, 3, 0x7c, 0, 4, 0x4a, 0, 5, 0xb6, 0, 6, 0x28,
		0, 7, 0x5d, 0, 8, 0xa2, 0, 9, 0x37, 0, 10, 0xc9, 0, 11, 0x64, 0, 12, 0xfe,
		2, 2, 0x9e, 3, 3, 0, 1, 1, 0, 5, 0, 0, 4, 3, 0, 0, 13, 0xd1, 2, 4, 0x15, 1, 5, 0,
		3, 8, 0, 2, 9, 0x82, 1, 10, 0, 4, 8, 0, 0, 1, 0x3b, 5, 0, 0}
	// One AP stores about a quarter of the pairs at 0 dB and none by 30 dB;
	// four store cross-AP edges up to 45 dB.
	f.Add(false, uint8(0), churn)
	f.Add(false, uint8(10), churn)
	for _, cut := range []uint8{0, 30, 45} {
		f.Add(true, cut, churn)
	}
	f.Fuzz(func(t *testing.T, fourAPs bool, cut uint8, ops []byte) {
		nw := newTestNetwork(uint64(cut) + 3)
		if fourAPs {
			addExtraAPs(t, nw, 4)
		}
		nw.cutoffDB = float64(cut % 50)
		nw.SetCouplingMode(CouplingSparse)
		for k := 0; k+2 < len(ops) && k < 3*64; k += 3 {
			id := 1 + uint32(ops[k+1]%16)
			pos := channel.Vec2{X: 0.2 + 5.6*float64(ops[k+2]>>4)/15, Y: 0.2 + 3.6*float64(ops[k+2]&15)/15}
			pose := channel.Pose{Pos: pos, Orientation: nw.selectAP(pos).Pose.Pos.Sub(pos).Angle()}
			n := nw.nodeByID(id)
			switch ops[k] % 6 {
			case 0: // join: a duplicate ID or a full band is a refusal
				_, _ = nw.Join(id, pose, 25e6, Telemetry(1))
			case 1:
				nw.Leave(id)
			case 2:
				nw.MoveNode(id, pose)
			case 3: // crash, as Run's fault handler does it
				if n != nil && !n.Down {
					n.Down = true
					nw.sparse.powerChanged(n)
				}
			case 4: // reboot through the handshake, as Run's fault handler does it
				if n != nil && n.Down {
					if _, err := nw.join(n, n.AP.Controller.NowS()); err == nil {
						n.Down = false
						nw.sparse.updateNode(nw, n, nw.applyAssignment(n))
					}
				}
			case 5:
				nw.EvaluateSINR()
			}
			checkEdgeBooks(t, nw, fmt.Sprintf("op %d", k/3))
		}
		got := edgeSet(nw)
		nw.enterSparse()
		if want := edgeSet(nw); !maps.Equal(got, want) {
			t.Fatalf("incremental engine stores %d edges, a fresh rebuild %d, and the sets differ", len(got), len(want))
		}
	})
}

// checkEdgeBooks asserts the engine's per-node edge books: every out-edge's
// mirror in-edge names it back at its slot and the reverse, every edge
// joins two members, and each node's per-foreign-AP edge count equals its
// out-edges into victims served at that AP.
func checkEdgeBooks(t *testing.T, nw *Network, what string) {
	t.Helper()
	counts := make([]int, len(nw.APs))
	for _, n := range nw.Nodes {
		clear(counts)
		for si, e := range n.sp.out {
			if nw.nodeByID(e.dst.ID) != e.dst {
				t.Fatalf("%s: node %d has an out-edge into non-member %d", what, n.ID, e.dst.ID)
			}
			if e.dstSlot >= len(e.dst.sp.in) || e.dst.sp.in[e.dstSlot].src != n || e.dst.sp.in[e.dstSlot].srcSlot != si {
				t.Fatalf("%s: out-edge %d→%d (slot %d) has no mirror at in-slot %d", what, n.ID, e.dst.ID, si, e.dstSlot)
			}
			if a := e.dst.AP.idx; a != n.AP.idx {
				counts[a]++
			}
		}
		for di, e := range n.sp.in {
			if nw.nodeByID(e.src.ID) != e.src {
				t.Fatalf("%s: node %d has an in-edge from non-member %d", what, n.ID, e.src.ID)
			}
			if e.srcSlot >= len(e.src.sp.out) || e.src.sp.out[e.srcSlot].dst != n || e.src.sp.out[e.srcSlot].dstSlot != di {
				t.Fatalf("%s: in-edge %d→%d (slot %d) has no mirror at out-slot %d", what, e.src.ID, n.ID, di, e.srcSlot)
			}
		}
		for a, want := range counts {
			got := 0
			if n.sp.cross != nil {
				got = int(n.sp.cross[a].edges)
			}
			if got != want {
				t.Fatalf("%s: node %d counts %d edges into AP %d's victims, has %d", what, n.ID, got, a, want)
			}
		}
	}
}

// edgeSet is the engine's stored edges: source and victim ID to the bits
// of the pair's coupling factor.
func edgeSet(nw *Network) map[[2]uint32]uint64 {
	set := map[[2]uint32]uint64{}
	for _, v := range nw.Nodes {
		for _, e := range v.sp.in {
			set[[2]uint32{e.src.ID, v.ID}] = math.Float64bits(e.w)
		}
	}
	return set
}

// TestEngineRecordSizes pins the per-node records on 64-bit platforms:
// heap_b_per_node is most of them, and a field that does not fit the
// padding grows every node of a 12 000-node fleet.
func TestEngineRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Node", unsafe.Sizeof(Node{}), 400},
		{"spNode", unsafe.Sizeof(spNode{}), 200},
		{"crossAP", unsafe.Sizeof(crossAP{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, want %d", c.name, c.got, c.want)
		}
	}
}
