package simnet

import (
	"math"
	"math/cmplx"
	"sort"
	"strings"
	"testing"

	"fmt"

	"mmx/internal/antenna"
	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/faults"
	"mmx/internal/mac"
	"mmx/internal/stats"
)

// multiAPNetwork builds the reference multi-AP fixture: the standard
// test network plus naps-1 extra APs spread along the lab room's long
// axis, each facing back into the room so nodes placed by churnPose see
// usable gain toward whichever AP is nearest.
func multiAPNetwork(t *testing.T, seed uint64, naps int) *Network {
	t.Helper()
	nw := newTestNetwork(seed)
	addExtraAPs(t, nw, naps)
	return nw
}

func addExtraAPs(t *testing.T, nw *Network, naps int) {
	t.Helper()
	for i := 1; i < naps; i++ {
		x := 0.3 + 5.4*float64(i)/float64(naps-1)
		orient := 0.0
		if x > 3 {
			orient = math.Pi
		}
		pose := channel.Pose{Pos: channel.Vec2{X: x, Y: 2}, Orientation: orient}
		if _, err := nw.AddAP(pose); err != nil {
			t.Fatalf("AddAP %d: %v", i, err)
		}
	}
}

// multiAPChurnPlan arms the multi-AP reference scenario on nw: starting
// membership spread across the APs, lossy control, a blocker sweeping
// through the room (degrading serving paths so the roam screen widens),
// hysteresis roaming on a fast check interval, and Poisson churn planned
// from a dedicated seeded RNG. Pure function of seed.
func multiAPChurnPlan(t *testing.T, nw *Network, seed uint64, nStart, nJoins, nLeaves int) {
	t.Helper()
	nw.Side = faults.Lossy(seed^0x51DE, 0.10, 0.05, 0.02)
	nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 2, checkS: 0.1, dwellS: 0.2})
	nw.Env.AddBlocker(&channel.Blocker{
		Pos: channel.Vec2{X: 1.0, Y: 2.0}, Radius: 0.35, LossDB: 18,
		Vel: channel.Vec2{X: 1.2, Y: 0.1},
	})
	for i := 0; i < nStart; i++ {
		id := uint32(i + 1)
		if _, err := nw.Join(id, multiAPPose(nw, id), 2e6, Telemetry(0.05)); err != nil {
			t.Fatalf("seed join %d: %v", id, err)
		}
	}
	rng := stats.NewRNG(seed ^ 0xC4021)
	at := 0.0
	for i := 0; i < nJoins; i++ {
		at += rng.Exp(0.02)
		id := uint32(1000 + i)
		nw.ScheduleJoin(at, id, multiAPPose(nw, id), 2e6, Telemetry(0.05))
	}
	at = 0.0
	for i := 0; i < nLeaves; i++ {
		at += rng.Exp(0.02)
		nw.ScheduleLeave(at, uint32(1+int(rng.Uint64()%uint64(nStart))))
	}
}

// multiAPPose spreads churn-test nodes across the full room (so nearest-
// AP association actually splits the membership), each facing its
// nearest AP.
func multiAPPose(nw *Network, id uint32) channel.Pose {
	pos := channel.Vec2{X: 0.8 + 0.5*float64(id%10), Y: 0.6 + 0.4*float64(id%7)}
	ap := nw.selectAP(pos)
	return channel.Pose{Pos: pos, Orientation: ap.Pose.Pos.Sub(pos).Angle()}
}

// fingerprintMultiAP extends the churn fingerprint with every multi-AP
// observable — roam counters, per-AP stats, and the full association
// history — all floats in hex so runs compare bit-for-bit.
func fingerprintMultiAP(st RunStats) string {
	var b strings.Builder
	b.WriteString(fingerprintRunStats(st))
	fmt.Fprintf(&b, "roams=%d roamsFailed=%d\n", st.Roams, st.RoamsFailed)
	for _, a := range st.PerAP {
		fmt.Fprintf(&b, "ap%d j=%d l=%d ri=%d ro=%d exp=%d m=%d\n",
			a.AP, a.Joins, a.Leaves, a.RoamsIn, a.RoamsOut, a.LeaseExpiries, a.Members)
	}
	ids := make([]uint32, 0, len(st.APHistory))
	for id := range st.APHistory {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for _, iv := range st.APHistory[id] {
			fmt.Fprintf(&b, "h%d ap=%d %x..%x\n", id, iv.AP, iv.FromS, iv.ToS)
		}
	}
	return b.String()
}

// TestMultiAPJoinSelectsNearest pins build-time topology rules: joins
// associate with the geometrically nearest AP, and the registry is
// frozen once membership exists.
func TestMultiAPJoinSelectsNearest(t *testing.T) {
	nw := multiAPNetwork(t, 51, 3)
	// AP x positions: 0.3, 3.0, 5.7.
	cases := []struct {
		id   uint32
		x    float64
		want int
	}{{1, 0.8, 0}, {2, 2.9, 1}, {3, 5.2, 2}}
	for _, c := range cases {
		pos := channel.Vec2{X: c.x, Y: 2.2}
		pose := channel.Pose{Pos: pos, Orientation: nw.APs[c.want].Pose.Pos.Sub(pos).Angle()}
		n, err := nw.Join(c.id, pose, 2e6, Telemetry(0.05))
		if err != nil {
			t.Fatalf("join %d: %v", c.id, err)
		}
		if got := n.AP.idx; got != c.want {
			t.Errorf("node %d at x=%.1f associated with AP %d, want %d", c.id, c.x, got, c.want)
		}
	}
	if _, err := nw.AddAP(channel.Pose{Pos: channel.Vec2{X: 4, Y: 1}}); err == nil {
		t.Fatal("AddAP after joins must fail — the registry is build-time topology")
	}
	if err := nw.PlanReuse(2); err == nil {
		t.Fatal("PlanReuse after joins must fail — replanning would strand live grants")
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatalf("spectrum after multi-AP joins: %v", err)
	}
}

// TestPlanReuseColoring pins the static frequency-reuse planner: the
// slices tile the network band exactly, adjacent APs in a line never
// share a slice at factor 2, factor 1 is the fully-shared no-op, and the
// invalid factors error.
func TestPlanReuseColoring(t *testing.T) {
	nw := multiAPNetwork(t, 52, 4)
	if err := nw.PlanReuse(0); err == nil {
		t.Error("factor 0 accepted")
	}
	if err := nw.PlanReuse(5); err == nil {
		t.Error("factor > AP count accepted")
	}
	full := nw.band
	if err := nw.PlanReuse(1); err != nil {
		t.Fatalf("factor 1: %v", err)
	}
	for _, ap := range nw.APs {
		if ap.Band != full {
			t.Fatalf("factor 1 must leave AP %d on the full band, got %v", ap.idx, ap.Band)
		}
	}
	if err := nw.PlanReuse(2); err != nil {
		t.Fatalf("factor 2: %v", err)
	}
	// The four APs sit in a line; with two slices the greedy max-min-
	// distance coloring must alternate, so adjacent APs never co-channel.
	for i := 1; i < len(nw.APs); i++ {
		if nw.APs[i].Band == nw.APs[i-1].Band {
			t.Errorf("adjacent APs %d and %d share slice %v", i-1, i, nw.APs[i].Band)
		}
	}
	// The distinct slices tile the band: equal-width halves, no gap.
	lo, hi := nw.APs[0].Band, nw.APs[1].Band
	if lo.LowHz > hi.LowHz {
		lo, hi = hi, lo
	}
	if lo.LowHz != full.LowHz || hi.HighHz != full.HighHz || lo.HighHz != hi.LowHz {
		t.Errorf("slices %v + %v do not tile %v", lo, hi, full)
	}
	// Controllers were rebuilt over the slices: a grant at each AP must
	// land inside that AP's slice.
	for i, c := range cases4() {
		pose := channel.Pose{Pos: c, Orientation: nw.APs[i].Pose.Pos.Sub(c).Angle()}
		n, err := nw.Join(uint32(100+i), pose, 2e6, Telemetry(0.05))
		if err != nil {
			t.Fatalf("post-plan join at AP %d: %v", i, err)
		}
		b := n.AP.Band
		if !b.Contains(n.Assignment.Low(), n.Assignment.High()) {
			t.Errorf("AP %d granted %v outside its slice %v", i, n.Assignment, b)
		}
	}
}

// cases4 returns one node position adjacent to each of the 4-AP
// fixture's APs (x = 0.3, 2.1, 3.9, 5.7).
func cases4() []channel.Vec2 {
	return []channel.Vec2{{X: 0.7, Y: 2.2}, {X: 2.2, Y: 1.8}, {X: 3.8, Y: 2.2}, {X: 5.3, Y: 1.8}}
}

// TestMultiAPChurnRoamDeterminism is the multi-AP determinism gate: the
// full reference scenario — lossy control, blocker sweep, hysteresis
// roaming, Poisson churn — over the sparse core must be byte-identical
// between a serial run and an 8-worker run, including roam counters,
// per-AP stats, association histories and the work counts. Run under -race this also
// proves the parallel settle fan-out never races the roam bookkeeping.
func TestMultiAPChurnRoamDeterminism(t *testing.T) {
	run := func(workers int) RunStats {
		nw := multiAPNetwork(t, 53, 4)
		nw.SetCouplingMode(CouplingSparse)
		nw.Workers = workers
		multiAPChurnPlan(t, nw, 53, 16, 8, 6)
		nw.OnMembership = func(event string, id uint32) {
			assertOccMasks(t, nw, fmt.Sprintf("after %s of node %d", event, id))
		}
		return nw.Run(1.2, 0.05, 10)
	}
	a, b := run(1), run(8)
	fa, fb := fingerprintMultiAP(a), fingerprintMultiAP(b)
	if fa != fb {
		t.Fatalf("multi-AP runs diverge between Workers=1 and Workers=8:\n--- serial ---\n%s--- parallel ---\n%s", fa, fb)
	}
	// Work counts are exact at any width; the leaves leave stale frames
	// behind, which count as dispatched events too. Each lane of the roam
	// screen counts its own screens and traces.
	if a.Work != b.Work || a.Work.Events == 0 || a.Leaves == 0 || a.Work.RoamScreens == 0 || a.Work.RoamTraces == 0 {
		t.Errorf("Work = %+v at Workers=1, %+v at Workers=8 (%d leaves)", a.Work, b.Work, a.Leaves)
	}
	if a.Roams == 0 {
		t.Error("reference scenario produced no roams — the blocker sweep should dislodge at least one node")
	}
}

// TestMultiAPSparseMatchesDense runs the multi-AP reference scenario and
// compares the engine with the dense oracle after every join, leave and
// roam and after the run: the per-AP shards plus cross-shard edges must
// compute exactly the dense cross-AP coupling — each interferer weighted
// by its power at the victim's AP — just sparsely.
func TestMultiAPSparseMatchesDense(t *testing.T) {
	nw := multiAPNetwork(t, 54, 4)
	multiAPChurnPlan(t, nw, 54, 14, 6, 5)
	roams := 0
	nw.OnMembership = func(event string, id uint32) {
		if event == "roam" {
			roams++
		}
		assertMatchesOracle(t, nw, fmt.Sprintf("after %s of node %d", event, id))
	}
	st := nw.Run(1.0, 0.05, 10)
	if roams == 0 || st.Joins == 0 || st.Leaves == 0 {
		t.Fatalf("scenario too tame: %d roams, %d joins, %d leaves", roams, st.Joins, st.Leaves)
	}
	assertMatchesOracle(t, nw, "post-run")
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatalf("spectrum after run: %v", err)
	}
}

// TestMultiAPDoubleAssociationCaught regression-tests the roaming
// invariant the honest lifecycle can never violate: a lease granted
// behind the network's back at a second AP, for a node served elsewhere,
// must fail ValidateSpectrum as a double association (it is not a
// tracked stray).
func TestMultiAPDoubleAssociationCaught(t *testing.T) {
	nw := multiAPNetwork(t, 55, 2)
	n := joinOne(t, nw, 5, 10e6)
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatalf("clean network fails validation: %v", err)
	}
	other := nw.APs[1]
	if n.AP.idx == 1 {
		other = nw.APs[0]
	}
	raw, err := mac.Marshal(mac.JoinRequest{NodeID: n.ID, Seq: 999, DemandBps: 1e6})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if _, err := other.Controller.HandleAtAppend(nil, raw, other.Controller.NowS()); err != nil {
		t.Fatalf("injected grant at AP %d: %v", other.idx, err)
	}
	err = nw.ValidateSpectrum()
	if err == nil {
		t.Fatal("double association not caught")
	}
	if !strings.Contains(err.Error(), "double-associated") {
		t.Errorf("error should name the double association: %v", err)
	}
	// The same grant for a tracked stray is the tolerated mid-roam state.
	nw.strays[n.ID] = other
	if err := nw.ValidateSpectrum(); err != nil {
		t.Errorf("tracked stray must be excused: %v", err)
	}
	delete(nw.strays, n.ID)
}

// TestRoamStrandedLeaseReclaimed engineers the mid-roam fault transient
// end to end: a node whose serving AP is down roams away, the release
// dies (stranding a lease, tracked as a stray), the AP restarts with
// empty books, and the renew cycle prunes the stray — ValidateSpectrum
// clean at every membership event along the way and no leases stranded
// at the end.
func TestRoamStrandedLeaseReclaimed(t *testing.T) {
	nw := newTestNetwork(56)
	// Second AP across the room, facing back toward it.
	if _, err := nw.AddAP(channel.Pose{Pos: channel.Vec2{X: 5.7, Y: 2}, Orientation: math.Pi}); err != nil {
		t.Fatalf("AddAP: %v", err)
	}
	// The node sits nearer AP 0 but faces AP 1, and a static blocker
	// shadows its serving path: non-LoS widens the roam screen to 4× the
	// serving distance, admitting the farther AP, and the boresight gain
	// toward AP 1 clears the hysteresis margin.
	pos := channel.Vec2{X: 1.5, Y: 2}
	pose := channel.Pose{Pos: pos, Orientation: 0}
	nw.Env.AddBlocker(&channel.Blocker{Pos: channel.Vec2{X: 0.9, Y: 2}, Radius: 0.3, LossDB: 15})
	n, err := nw.Join(1, pose, 2e6, Telemetry(0.05))
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if n.AP.idx != 0 {
		t.Fatalf("node associated with AP %d, want nearest AP 0", n.AP.idx)
	}
	nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 1, checkS: 0.1, dwellS: 0.2})
	// AP 0 is down across the first roam check, so the release at it
	// must die; it restarts at 0.55 s with empty volatile books.
	nw.Faults = faults.NewPlan().RestartAPAt(0.05, 0.5, 0)
	sawStray := false
	nw.OnMembership = func(event string, id uint32) {
		if event == "roam" && len(nw.strays) > 0 {
			sawStray = true
		}
		if err := nw.ValidateSpectrum(); err != nil {
			t.Fatalf("spectrum inconsistent after %s of node %d: %v", event, id, err)
		}
	}
	st := nw.Run(1.2, 0.05, 10)
	if st.Roams < 1 {
		t.Fatalf("node never roamed off its blocked, down AP (roams=%d failed=%d)", st.Roams, st.RoamsFailed)
	}
	if n.AP.idx != 1 {
		t.Errorf("node finished on AP %d, want 1", n.AP.idx)
	}
	if !sawStray {
		t.Error("release at the down AP should have stranded a tracked stray lease")
	}
	if len(nw.strays) != 0 {
		t.Errorf("%d stray leases survived the restart + renew cycle", len(nw.strays))
	}
	if nw.APs[0].Controller.HoldsLease(1) {
		t.Error("restarted AP still books the roamed-away node")
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatalf("spectrum after run: %v", err)
	}
	hist := st.APHistory[1]
	if len(hist) != 2 || hist[0].AP != 0 || hist[1].AP != 1 {
		t.Errorf("association history %v, want [AP0, AP1]", hist)
	}
}

// TestRoamKeepsLastGrantWhenEveryJoinDies pins the far end of roamTo's
// degradation ladder: the release at the old AP is acked, the join at
// the new AP dies, and so does the fallback — here because both
// controllers refuse the node's (corrupted, non-finite) demand. The node
// then holds no lease anywhere but keeps transmitting on its last-known
// assignment, at its old AP, until a renew heals it.
func TestRoamKeepsLastGrantWhenEveryJoinDies(t *testing.T) {
	nw := newTestNetwork(56)
	if _, err := nw.AddAP(channel.Pose{Pos: channel.Vec2{X: 5.7, Y: 2}, Orientation: math.Pi}); err != nil {
		t.Fatalf("AddAP: %v", err)
	}
	// Same geometry as TestRoamStrandedLeaseReclaimed: nearer AP 0,
	// blocked towards it, facing AP 1.
	nw.Env.AddBlocker(&channel.Blocker{Pos: channel.Vec2{X: 0.9, Y: 2}, Radius: 0.3, LossDB: 15})
	n, err := nw.Join(1, channel.Pose{Pos: channel.Vec2{X: 1.5, Y: 2}}, 2e6, Telemetry(0.05))
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 1, checkS: 0.1, dwellS: 1})
	held, rate := n.Assignment, n.RateBps
	n.Demand = math.NaN()
	st := nw.Run(0.25, 0.05, 10) // one roam check, no renew yet
	if st.Roams != 0 || st.RoamsFailed != 1 {
		t.Fatalf("roams=%d failed=%d, want one failed roam", st.Roams, st.RoamsFailed)
	}
	if nw.APs[0].Controller.HoldsLease(1) || nw.APs[1].Controller.HoldsLease(1) {
		t.Fatal("scenario is vacuous: the node still holds a lease")
	}
	if n.AP.idx != 0 || n.Assignment != held || n.RateBps != rate || rate == 0 {
		t.Errorf("after the failed roam: AP %d, assignment %+v, rate %g; want AP 0, %+v, %g",
			n.AP.idx, n.Assignment, n.RateBps, held, rate)
	}
}

// TestMultiAPChurnSpectrumInvariants is the multi-AP acceptance run in
// miniature (the 100k-node, 16-AP version lives behind -short in the
// root package): a reuse-planned 4-AP network under churn and roaming,
// with the per-AP books audited after every membership and roam event.
// No AP restart here — after a restart wipes an AP's volatile books its
// survivors legitimately hold no allocation until the renew cycle
// re-grants, so the strict every-event audit only holds on the
// fault-free lifecycle; the restart transient (stray tracking, TTL
// reclaim) is pinned by TestRoamStrandedLeaseReclaimed.
func TestMultiAPChurnSpectrumInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-AP churn acceptance run")
	}
	nw := multiAPNetwork(t, 57, 4)
	if err := nw.PlanReuse(2); err != nil {
		t.Fatalf("PlanReuse: %v", err)
	}
	multiAPChurnPlan(t, nw, 57, 40, 12, 10)
	events := 0
	nw.OnMembership = func(event string, id uint32) {
		events++
		if err := nw.ValidateSpectrum(); err != nil {
			t.Fatalf("spectrum inconsistent after %s of node %d (event %d): %v", event, id, events, err)
		}
	}
	st := nw.Run(1.5, 0.05, 10)
	if st.Joins == 0 || st.Leaves == 0 {
		t.Fatalf("churn did not happen: Joins=%d Leaves=%d", st.Joins, st.Leaves)
	}
	if events != st.Joins+st.Leaves+st.Roams {
		t.Errorf("OnMembership fired %d times, counters say %d joins + %d leaves + %d roams",
			events, st.Joins, st.Leaves, st.Roams)
	}
	if len(st.PerAP) != 4 {
		t.Fatalf("PerAP has %d entries, want 4", len(st.PerAP))
	}
	members := 0
	for _, a := range st.PerAP {
		members += a.Members
	}
	if members != len(nw.Nodes) {
		t.Errorf("per-AP member counts sum to %d, membership is %d", members, len(nw.Nodes))
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatalf("spectrum after run: %v", err)
	}
}

// TestLinksEvaluateThroughTheAPsOwnAntenna pins Network.evaluate, the one
// place a node's link is assembled: the serving evaluation (called
// directly, and what the engine holds of it), the power crossPower reports at
// every foreign AP, and both again after MoveNode, after a roam and after
// the roam back, each equal what core.NewLink builds from the node's
// current pose toward that AP. A deployment that replaces the APs'
// Patterns before the first join gets links through those patterns, the
// ones sparsePowerBoundConst bounds; with every pattern left alone a link
// carries NewLink's default antenna.
func TestLinksEvaluateThroughTheAPsOwnAntenna(t *testing.T) {
	custom := []antenna.Pattern{
		antenna.NewFixedBeam(antenna.Isotropic{}, 7),
		antenna.NewFixedBeam(antenna.Isotropic{}, 9),
		antenna.NewFixedBeam(antenna.Isotropic{}, 11),
	}
	for _, tc := range []struct {
		name  string
		patch bool
	}{{"default", false}, {"custom", true}} {
		nw := multiAPNetwork(t, 61, 3)
		if tc.patch {
			for i, ap := range nw.APs {
				ap.Pattern = custom[i]
			}
		}
		reference := func(n *Node, ap *AccessPoint) core.Evaluation {
			l := core.NewLink(nw.Env, n.Pose, ap.Pose)
			l.Beams = nw.NodeBeams
			if tc.patch {
				l.APPattern = ap.Pattern
			}
			l.Cfg.BandwidthHz = n.Assignment.WidthHz
			return l.EvaluateWithClass()
		}
		check := func(stage string, n *Node, home int) {
			t.Helper()
			if n.AP != nw.APs[home] {
				t.Fatalf("%s, %s: node %d on AP %d, want %d", tc.name, stage, n.ID, n.AP.idx, home)
			}
			want := reference(n, n.AP)
			if got := nw.evaluate(n, n.AP); got != want {
				t.Errorf("%s, %s: node %d's serving link evaluates to %+v, want %+v", tc.name, stage, n.ID, got, want)
			}
			settledEvals(t, nw, tc.name+", "+stage) // the engine holds what that evaluation gives
			for _, ap := range nw.APs {
				if ap == n.AP {
					continue
				}
				ev := reference(n, ap)
				g := math.Max(cmplx.Abs(ev.G0), cmplx.Abs(ev.G1))
				if got := nw.crossPower(n, ap.idx); got != g*g {
					t.Errorf("%s, %s: node %d's power at AP %d is %g W, want %g W", tc.name, stage, n.ID, ap.idx, got, g*g)
				}
			}
		}
		n, err := nw.Join(1, channel.Pose{Pos: channel.Vec2{X: 5.0, Y: 1.5}, Orientation: 0.3}, 2e6, Telemetry(0.05))
		if err != nil {
			t.Fatal(err)
		}
		check("join", n, 2)
		nw.MoveNode(1, channel.Pose{Pos: channel.Vec2{X: 4.6, Y: 2.8}, Orientation: -0.2})
		check("move", n, 2)
		// A second node joins facing AP 0, is carried to AP 2 and roams
		// there, then is carried back and roams home.
		m, err := nw.Join(2, channel.Pose{Pos: channel.Vec2{X: 1.0, Y: 2.5}, Orientation: math.Pi}, 2e6, Telemetry(0.05))
		if err != nil {
			t.Fatal(err)
		}
		check("join", m, 0)
		nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 1, checkS: 0.05, dwellS: 0.1})
		nw.MoveNode(2, channel.Pose{Pos: channel.Vec2{X: 5.2, Y: 2.4}, Orientation: 0})
		if st := nw.Run(0.3, 0.05, 10); st.Roams == 0 {
			t.Fatalf("%s: the carried node never roamed", tc.name)
		}
		check("roam", m, 2)
		nw.MoveNode(2, channel.Pose{Pos: channel.Vec2{X: 1.0, Y: 2.5}, Orientation: math.Pi})
		if st := nw.Run(0.3, 0.05, 10); st.Roams == 0 {
			t.Fatalf("%s: the carried node never roamed back", tc.name)
		}
		check("roam back", m, 0)
		check("roam back", n, 2)
	}
}
