package simnet

import (
	"math"
	"reflect"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/faults"
	"mmx/internal/mac"
	"mmx/internal/stats"
	"mmx/internal/units"
)

// lossyTestNetwork builds a network whose control side channel drops,
// duplicates and truncates frames at the given rates.
func lossyTestNetwork(seed uint64, drop, dup, trunc float64) *Network {
	nw := newTestNetwork(seed)
	nw.Side = faults.Lossy(seed^0x51DE, drop, dup, trunc)
	// At 30% drop an 8-attempt exchange still fails ~1% of the time;
	// give the heavy-loss tests enough headroom that joins are sure.
	nw.retry.MaxAttempts = 16
	return nw
}

// TestJoinOverLossyChannel: the retry state machine completes the full
// handshake — including the SDM overflow path's ShareConfirm — over a
// badly impaired channel, and the resulting books are consistent.
func TestJoinOverLossyChannel(t *testing.T) {
	nw := lossyTestNetwork(11, 0.3, 0.15, 0.05)
	nodes := placeNodes(t, nw, 5, 60e6) // 3 FDM owners + 2 SDM sharers
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if !nw.APs[0].Controller.HoldsLease(n.ID) {
			t.Errorf("node %d holds no lease after join", n.ID)
		}
	}
	if nw.Side.Drops == 0 {
		t.Error("test is vacuous: the channel never dropped a frame")
	}
}

// TestJoinDeterministicUnderLoss: the same seeds give bit-identical join
// outcomes, drop counts included.
func TestJoinDeterministicUnderLoss(t *testing.T) {
	run := func() ([]mac.Assignment, int) {
		nw := lossyTestNetwork(13, 0.3, 0.2, 0.1)
		nodes := placeNodes(t, nw, 4, 60e6)
		out := make([]mac.Assignment, len(nodes))
		for i, n := range nodes {
			out[i] = n.Assignment
		}
		return out, nw.Side.Drops
	}
	a1, d1 := run()
	a2, d2 := run()
	if !reflect.DeepEqual(a1, a2) || d1 != d2 {
		t.Fatalf("runs diverged: %v (%d drops) vs %v (%d drops)", a1, d1, a2, d2)
	}
}

// TestChurnLeaseReclaim is the churn satellite: 30% of nodes crash
// without a Release mid-run. Within one lease TTL (plus a renew period)
// their spectrum is reclaimed, surviving sharers of dead owners are
// promoted, and the spectrum books validate.
func TestChurnLeaseReclaim(t *testing.T) {
	nw := lossyTestNetwork(17, 0.2, 0.1, 0.05)
	nodes := placeNodes(t, nw, 10, 60e6) // 3 owners + 7 sharers
	// Crash 3 of 10 silently — including node 1, an FDM owner with
	// sharers on its channel.
	plan := faults.NewPlan().Crash(0.1, 1).Crash(0.1, 4).Crash(0.1, 7)
	nw.Faults = plan
	st := nw.Run(3.0, 0, -5) // > crash time + TTL (1 s) + renew period
	if st.Control.Crashes != 3 {
		t.Fatalf("crashes executed = %d", st.Control.Crashes)
	}
	if st.Control.LeaseExpiries != 3 {
		t.Errorf("lease expiries = %d, want 3", st.Control.LeaseExpiries)
	}
	for _, n := range nodes {
		if n.Down {
			if nw.APs[0].Controller.HoldsLease(n.ID) {
				t.Errorf("crashed node %d still holds a lease", n.ID)
			}
			continue
		}
		if !nw.APs[0].Controller.HoldsLease(n.ID) {
			t.Errorf("surviving node %d lost its lease", n.ID)
		}
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatal(err)
	}
	// Node 1 owned a channel with sharers: promotion (not reclamation to
	// the free pool) must have handed it to a surviving sharer, so the
	// count of exclusive survivors is back to the original 3 owners.
	exclusive := 0
	for _, n := range nodes {
		if !n.Down && !n.Shared {
			exclusive++
		}
	}
	if exclusive != 3 {
		t.Errorf("exclusive survivors = %d, want 3 (one promoted)", exclusive)
	}
	if st.Control.Promotions+st.Control.Resyncs == 0 {
		t.Error("no promotion reached any node")
	}
}

// TestRunUnderFaultPlanConverges is the acceptance scenario: 30% control
// drop with duplicated and truncated frames, a mid-run crash+reboot, a
// node that dies for good, and an AP restart that wipes the spectrum
// books. The network must converge — every surviving node re-holds a
// valid lease, the books validate — and repeat bit-identically.
func TestRunUnderFaultPlanConverges(t *testing.T) {
	run := func() (RunStats, *Network) {
		nw := lossyTestNetwork(19, 0.3, 0.15, 0.05)
		placeNodes(t, nw, 6, 60e6)
		nw.Faults = faults.NewPlan().
			Crash(0.4, 2).
			Reboot(1.2, 2).
			Crash(0.6, 5). // never reboots
			RestartAPAt(1.8, 0.25, 0)
		return nw.Run(4.0, 0, -5), nw
	}
	st, nw := run()
	if st.Control.Crashes != 2 || st.Control.Reboots != 1 || st.Control.APRestarts != 1 {
		t.Fatalf("fault execution: %+v", st.Control)
	}
	if st.Control.Rejoins == 0 {
		t.Error("the AP restart should have forced renew-nack rejoins")
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nw.Nodes {
		if n.ID == 5 {
			if !n.Down {
				t.Error("node 5 should still be down")
			}
			continue
		}
		if n.Down {
			t.Errorf("node %d should be back up", n.ID)
			continue
		}
		if !nw.APs[0].Controller.HoldsLease(n.ID) {
			t.Errorf("surviving node %d holds no lease after convergence", n.ID)
		}
	}
	// Bit-reproducibility of the whole run, control plane included.
	st2, _ := run()
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("runs diverged:\n%+v\n%+v", st, st2)
	}
}

// TestAPRestartGracefulDegradation: while the AP is down, nodes keep
// moving data on their last-known assignments — goodput does not go to
// zero — and renews fail rather than wedge.
func TestAPRestartGracefulDegradation(t *testing.T) {
	nw := newTestNetwork(23) // perfect side channel isolates the restart
	placeNodes(t, nw, 3, 60e6)
	nw.Faults = faults.NewPlan().RestartAPAt(0.2, 1.0, 0)
	st := nw.Run(2.0, 0, -5)
	if st.Control.RenewsFailed == 0 {
		t.Error("renews during the outage should fail")
	}
	if st.Control.Rejoins == 0 {
		t.Error("nodes should rejoin after the restart")
	}
	for _, n := range st.PerNode {
		if n.BitsDelivered == 0 {
			t.Errorf("node %d delivered nothing — data plane stalled", n.ID)
		}
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatal(err)
	}
}

// TestRenewKeepsEngineOnTheGrant: every renew that moves a node's grant
// re-registers it with the interference engine — also a lost one, where
// the nack's rejoin was rejected into SDM and its share confirm died:
// the node transmits on that placement, so the engine must sum its
// interference there. The scenario is
//
//	mmx-sim -nodes 60 -duration 4 -drop 0.25 -dup 0.1 -trunc 0.08
//	        -ap-restart 1.0@0.3 -lease-ttl 0.5 -seed S
//
// built the way the CLI builds it, at seeds whose runs end on such a
// renew.
func TestRenewKeepsEngineOnTheGrant(t *testing.T) {
	for _, seed := range []uint64{23, 24, 31, 34, 36} {
		rng := stats.NewRNG(seed)
		env := channel.NewEnvironment(channel.NewRoom(6, 4, rng), units.ISM24GHzCenter)
		ap := channel.Vec2{X: 0.3, Y: 2}
		nw := New(env, channel.Pose{Pos: ap}, seed+1)
		nw.SetLeaseTTL(0.5, 0.15)
		nw.Side = faults.Lossy(seed+2, 0.25, 0.1, 0.08)
		nw.Faults = faults.NewPlan().RestartAPAt(1.0, 0.3, 0)
		const nodes = 60
		for i := 0; i < nodes; i++ {
			frac := float64(i) / nodes
			pos := channel.Vec2{X: 1 + 4.2*frac, Y: 0.5 + 3*math.Abs(math.Sin(frac*math.Pi*3))}
			orient := ap.Sub(pos).Angle() + (frac-0.5)*math.Pi/3
			if _, err := nw.Join(uint32(i+1), channel.Pose{Pos: pos, Orientation: orient}, 10e6, HDCamera(8)); err != nil {
				t.Fatalf("seed %d: join %d: %v", seed, i+1, err)
			}
		}
		env.AddBlocker(&channel.Blocker{
			Pos: channel.Vec2{X: 1.5, Y: 2}, Radius: 0.3,
			LossDB: rng.Uniform(10, 15), Vel: channel.Vec2{X: 0.6, Y: 0.4},
		})
		nw.Run(4, 0.05, 10)
		nw.EvaluateSINR()
		for _, n := range nw.Nodes {
			if n.Down {
				continue
			}
			cfg := nw.linkTemplate
			cfg.BandwidthHz = n.Assignment.WidthHz
			switch {
			case n.sp.cs == nil || n.sp.cs.center != n.Assignment.CenterHz:
				t.Errorf("seed %d: node %d transmits at %.0f Hz, but the engine registers it elsewhere",
					seed, n.ID, n.Assignment.CenterHz)
			case n.sp.noise != cfg.NoisePowerW():
				t.Errorf("seed %d: node %d: engine noise floor %g W is not its %.0f Hz channel's %g W",
					seed, n.ID, n.sp.noise, n.Assignment.WidthHz, cfg.NoisePowerW())
			}
		}
	}
}

// TestLeaseTTLReachesEveryAP pins the lease TTL's one copy: SetLeaseTTL
// runs before AddAP builds three of the controllers and before PlanReuse
// rebuilds all four, and Run hands the TTL to each of them, so every AP
// expires the lease of the one node that crashed at it. Nodes joining
// and leaving around the crashes keep membership events firing;
// ValidateSpectrum is clean after each one and after the run.
func TestLeaseTTLReachesEveryAP(t *testing.T) {
	nw := newTestNetwork(43)
	nw.SetLeaseTTL(0.4, 0.1)
	addExtraAPs(t, nw, 4)
	if err := nw.PlanReuse(2); err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan()
	crashed := make([]uint32, len(nw.APs))
	for id := uint32(1); id <= 16; id++ {
		n, err := nw.Join(id, multiAPPose(nw, id), 2e6, Telemetry(0.05))
		if err != nil {
			t.Fatalf("join %d: %v", id, err)
		}
		if i := n.AP.idx; crashed[i] == 0 {
			crashed[i] = id
			plan.Crash(0.1+0.05*float64(i), id)
		} else {
			nw.ScheduleLeave(0.2+0.05*float64(id), id)
		}
	}
	for i, id := range crashed {
		if id == 0 {
			t.Fatalf("no node joined AP %d", i)
		}
	}
	nw.Faults = plan
	for id := uint32(17); id <= 20; id++ {
		nw.ScheduleJoin(0.3+0.05*float64(id-17), id, multiAPPose(nw, id), 2e6, Telemetry(0.05))
	}
	events := 0
	nw.OnMembership = func(event string, id uint32) {
		events++
		if err := nw.ValidateSpectrum(); err != nil {
			t.Errorf("%s of node %d: %v", event, id, err)
		}
	}
	st := nw.Run(1.2, 0.05, 10)
	if events != st.Joins+st.Leaves || st.Joins != 4 || st.Leaves != 12 {
		t.Fatalf("%d membership events for %d joins and %d leaves, want 4 joins and 12 leaves",
			events, st.Joins, st.Leaves)
	}
	for i, a := range st.PerAP {
		if a.LeaseExpiries != 1 || nw.APs[i].Controller.HoldsLease(crashed[i]) {
			t.Errorf("AP %d expired %d leases (node %d still leased: %t), want its crashed node %d's",
				i, a.LeaseExpiries, crashed[i], nw.APs[i].Controller.HoldsLease(crashed[i]), crashed[i])
		}
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Errorf("after the run: %v", err)
	}
}

// TestCrashedNodeStopsTransmitting: a down node sends no frames, emits
// no interference, and reports -Inf SINR with path class "down".
func TestCrashedNodeStopsTransmitting(t *testing.T) {
	nw := newTestNetwork(29)
	placeNodes(t, nw, 2, 60e6)
	nw.Faults = faults.NewPlan().Crash(0.0, 1)
	st := nw.Run(1.0, 0, -5)
	if st.PerNode[0].FramesSent != 0 {
		t.Errorf("crashed node sent %d frames", st.PerNode[0].FramesSent)
	}
	if st.PerNode[1].FramesSent == 0 {
		t.Error("survivor sent nothing")
	}
	reports := nw.EvaluateSINR()
	if reports[0].PathClass != "down" || !math.IsInf(reports[0].SINRdB, -1) || reports[0].BER != 1 {
		t.Errorf("down report = %+v", reports[0])
	}
	if math.IsInf(reports[1].SINRdB, -1) {
		t.Error("survivor report corrupted")
	}
}

// TestRejoinAfterRemovalWhileCrashed: node 7's only request was its join
// (seq 1); it crashes, is removed while down, and the same ID joins
// again — a fresh device whose first request is seq 1 once more. A
// controller that still remembers the released node's (7, seq 1) answers
// with the stale grant and allocates nothing.
func TestRejoinAfterRemovalWhileCrashed(t *testing.T) {
	nw := newTestNetwork(31)
	joinOne(t, nw, 7, 10e6)
	nw.Faults = faults.NewPlan().Crash(0.05, 7)
	nw.ScheduleLeave(0.10, 7)
	nw.ScheduleJoin(0.15, 7, churnPose(nw, 7), 10e6, Telemetry(0.1))
	nw.OnMembership = func(event string, id uint32) {
		if err := nw.ValidateSpectrum(); err != nil {
			t.Errorf("%s of node %d: %v", event, id, err)
		}
	}
	st := nw.Run(0.25, 0.1, 10)
	if st.Leaves != 1 || st.Joins != 1 {
		t.Fatalf("Leaves=%d Joins=%d, want 1/1", st.Leaves, st.Joins)
	}
}

// TestOutageRateZeroDropsFrames is the rate-0 satellite: a node whose
// adapted rate is 0 must not transmit at n.Demand — its frames are
// counted as outage discards and deliver nothing.
func TestOutageRateZeroDropsFrames(t *testing.T) {
	nw := newTestNetwork(31)
	nodes := placeNodes(t, nw, 1, 10e6)
	nodes[0].RateBps = 0 // force outage; envStep=0 never re-adapts
	st := nw.Run(0.5, 0, -5)
	pn := st.PerNode[0]
	if pn.FramesSent == 0 {
		t.Fatal("traffic model generated nothing")
	}
	if pn.FramesOutage != pn.FramesSent {
		t.Errorf("outage frames = %d of %d sent", pn.FramesOutage, pn.FramesSent)
	}
	if pn.BitsDelivered != 0 || pn.AirtimeFraction != 0 {
		t.Errorf("outage node delivered %g bits over %.3f airtime", pn.BitsDelivered, pn.AirtimeFraction)
	}
}

// TestInRunRateAdaptation: with environment stepping enabled, Run
// re-adapts RateBps from the fresh SINR reports — a node whose link
// collapses under blockage downshifts (or outages) without any Join-time
// re-derivation.
func TestInRunRateAdaptation(t *testing.T) {
	rng := stats.NewRNG(37)
	env := channel.NewEnvironment(channel.NewLabRoom(rng), 24.125e9)
	// A walking blocker crossing the LoS corridor.
	env.AddBlocker(&channel.Blocker{
		Pos: channel.Vec2{X: 2, Y: 0.3}, Radius: 0.35, LossDB: 15,
		Vel: channel.Vec2{Y: 1.5},
	})
	ap := channel.Pose{Pos: channel.Vec2{X: 0.3, Y: 2}}
	nw := New(env, ap, 1037)
	pos := channel.Vec2{X: 5.2, Y: 2}
	n, err := nw.Join(1, channel.Pose{Pos: pos, Orientation: nw.APs[0].Pose.Pos.Sub(pos).Angle()}, 100e6, HDCamera(8))
	if err != nil {
		t.Fatal(err)
	}
	startRate := n.RateBps
	rates := map[float64]bool{}
	for i := 0; i < 40; i++ {
		nw.Run(0.05, 0.05, -5)
		rates[n.RateBps] = true
	}
	if len(rates) < 2 {
		t.Errorf("rate never adapted in-run: stuck at %v (start %g)", rates, startRate)
	}
}

// TestLeaveBestEffortUnderLoss: Leave over a hopeless channel (100%
// drop) must not wedge — the lease TTL reclaims the spectrum instead.
func TestLeaveBestEffortUnderLoss(t *testing.T) {
	nw := lossyTestNetwork(41, 1.0, 0, 0) // nothing gets through
	// Join over a dead channel can't work; install reliable first.
	nw.Side = nil
	placeNodes(t, nw, 2, 100e6)
	nw.Side = faults.Lossy(99, 1.0, 0, 0)
	nw.Leave(1)
	if len(nw.Nodes) != 1 {
		t.Fatal("leaver not removed locally")
	}
	// The AP never heard the release; the lease must still be live.
	if !nw.APs[0].Controller.HoldsLease(1) {
		t.Fatal("release cannot have been delivered over a dead channel")
	}
	nw.Side = nil
	st := nw.Run(2.0, 0, -5) // one TTL + renew period
	if st.Control.LeaseExpiries != 1 {
		t.Errorf("lease expiries = %d, want 1 (the silent leaver)", st.Control.LeaseExpiries)
	}
	if nw.APs[0].Controller.HoldsLease(1) {
		t.Error("leaked lease never reclaimed")
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashedNodeLeaveBeforeRunReleasesBooks: a crashed node's radio
// sends nothing, so Leave between runs must free its books entry at the
// controller as the in-run leave does — not send its release over the
// side channel, where loss strands the lease until its TTL.
func TestCrashedNodeLeaveBeforeRunReleasesBooks(t *testing.T) {
	nw := newTestNetwork(43)
	placeNodes(t, nw, 2, 100e6)
	// Crash node 1 near the end of the run: its last renew is recent, so
	// its lease outlives the run.
	nw.Faults = faults.NewPlan().Crash(0.95, 1)
	nw.Run(1.0, 0, -5)
	if n := nw.nodeByID(1); n == nil || !n.Down {
		t.Fatal("node 1 did not crash")
	}
	if !nw.APs[0].Controller.HoldsLease(1) {
		t.Fatal("test is vacuous: the crashed node's lease already expired")
	}
	nw.Side = faults.Lossy(99, 1, 0, 0) // nothing gets through
	nw.Leave(1)
	if nw.APs[0].Controller.HoldsLease(1) {
		t.Error("a crashed node's Leave before a run left its lease in the books")
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatal(err)
	}
}

// TestAirCarrierTakesFirstInTimeoutCopy: within an attempt the virtual
// carrier yields the reply copies in the order the side channel produced
// them — request copy by request copy, each one's reply copies in turn —
// skipping any whose round trip exceeds the timeout, so the exchange
// takes the first in-timeout copy in that order, not the earliest
// arrival. Seed 2 duplicates and delays every frame into round trips of
// 22.1 (late), 14.5, 3.0 and 12.5 ms: the answer is 14.5.
func TestAirCarrierTakesFirstInTimeoutCopy(t *testing.T) {
	side := func() *faults.SideChannel {
		sc := faults.NewSideChannel(2)
		sc.DupProb, sc.DelayProb, sc.DelayMeanS = 1, 1, 0.008
		return sc
	}
	nw := newTestNetwork(3)
	nw.Side = side()
	timeout := nw.retry.TimeoutS

	// A twin channel replays the draws: nothing truncates, so they do not
	// depend on the frames' contents.
	twin := side()
	var trips []float64
	for _, rd := range twin.Transmit([]byte{0}) {
		for _, dd := range twin.Transmit([]byte{0}) {
			trips = append(trips, rd.DelayS+dd.DelayS)
		}
	}
	first, earliest := -1.0, math.Inf(1)
	for _, d := range trips {
		if d > timeout {
			continue
		}
		if first < 0 {
			first = d
		}
		earliest = math.Min(earliest, d)
	}
	if len(trips) != 4 || trips[0] <= timeout || first < 0 || earliest == first {
		t.Fatalf("seed no longer separates the rules: round trips %v", trips)
	}

	n := &Node{AP: nw.APs[0]}
	n.ID, n.Demand = 42, 1e6
	req := mac.JoinRequest{NodeID: 42, Seq: 1, DemandBps: 1e6}.AppendTo(nil)
	reply, took, err := nw.exchangeAt(n, nw.APs[0], 0)(req)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if _, ok := reply.(mac.AssignmentMsg); !ok {
		t.Fatalf("reply %T, want an assignment", reply)
	}
	if took != first {
		t.Fatalf("took %v, want the first in-timeout copy's %v (earliest arrival %v, round trips %v)",
			took, first, earliest, trips)
	}
}
