package simnet

import (
	"math"
	"runtime/debug"
	"sort"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/stats"
)

// TestSimNaNTimeClampsToNow regression-tests the NaN clamp: `t < now` is
// false for NaN, so a NaN time used to enter the heap unclamped, compare
// false against everything (1 fired before 0.5) and end as the clock.
func TestSimNaNTimeClampsToNow(t *testing.T) {
	s := NewSim()
	var order []float64
	for _, at := range []float64{1, math.NaN(), 2, 0.5} {
		at := at
		s.At(at, func() { order = append(order, at) })
	}
	s.After(math.NaN(), func() { order = append(order, -1) })
	s.RunUntil(3)
	// Both NaN events clamp to now = 0 and run first, in call order.
	want := []float64{math.NaN(), -1, 0.5, 1, 2}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want 5 events", order)
	}
	for i := range want {
		if order[i] != want[i] && !(math.IsNaN(order[i]) && math.IsNaN(want[i])) {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3 {
		t.Errorf("clock = %g, want 3", s.Now())
	}
}

// TestScheduleLeaveNaNKeepsStatsFinite drives the same bug from the
// public surface: a NaN churn time and a traffic model returning a NaN
// gap must both act as "now" and leave every sim-time-stamped statistic
// finite.
func TestScheduleLeaveNaNKeepsStatsFinite(t *testing.T) {
	nw := newTestNetwork(61)
	placeNodes(t, nw, 3, 10e6)
	nanOnce := true
	nw.Nodes[2].Traffic = trafficFunc(func() (float64, int) {
		if nanOnce {
			nanOnce = false
			return math.NaN(), 100
		}
		return 0.01, 100
	})
	nw.ScheduleLeave(math.NaN(), 1)
	nw.ScheduleJoin(0.2, 9, churnPose(nw, 9), 10e6, HDCamera(8))
	st := nw.Run(1, 0.1, 10)
	if st.Leaves != 1 || st.Joins != 1 {
		t.Fatalf("leaves = %d, joins = %d, want 1 and 1", st.Leaves, st.Joins)
	}
	finite := func(what string, id uint32, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("node %d %s = %g", id, what, v)
		}
	}
	for _, pn := range st.PerNode {
		finite("JoinedAtS", pn.ID, pn.JoinedAtS)
		finite("LeftAtS", pn.ID, pn.LeftAtS)
		finite("ActiveS", pn.ID, pn.ActiveS)
		finite("AirtimeFraction", pn.ID, pn.AirtimeFraction)
		finite("MeanDelayS", pn.ID, pn.MeanDelayS)
	}
	if pn := st.PerNode[0]; pn.ID != 1 || pn.LeftAtS != 0 || pn.ActiveS != 0 || pn.FramesSent != 0 {
		t.Errorf("NaN leave should act at t=0: %+v", pn)
	}
	if pn := st.PerNode[2]; pn.FramesSent < 90 {
		t.Errorf("node 3 sent %d frames after its NaN gap, want ≈100", pn.FramesSent)
	}
}

// TestSimDispatchOrderMatchesReference is the engine's order contract as
// a property: a few thousand generic and frame events — duplicate times,
// past times, times equal to the horizon, events scheduled from inside
// handlers, frame chains cancelled by a generation bump and restarted on
// the same handle by a new Node while the stale frame is still queued —
// must dispatch exactly as a stable sort of the scheduling log by (at,
// seq), seq being call order and past times clamped to now.
func TestSimDispatchOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fired, rejoins := checkDispatchOrder(t, seed, nil)
		if fired < 3000 || rejoins < 100 {
			t.Errorf("seed %d: %d events dispatched, %d chains restarted over a queued stale frame; the plan is too thin to mean much", seed, fired, rejoins)
		}
	}
}

// FuzzSimDispatchOrder runs the same check with its choices read from
// the fuzz input first and from the seeded RNG once the input runs out.
func FuzzSimDispatchOrder(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(2), []byte{1, 3, 1, 0, 7, 1, 5, 2, 1, 1, 0, 2})
	f.Add(uint64(3), []byte{0, 0, 0, 0, 9, 9, 9, 9, 1, 2, 1, 2})
	f.Fuzz(func(t *testing.T, seed uint64, plan []byte) {
		checkDispatchOrder(t, seed, plan)
	})
}

// scheduled is one entry of the reference's scheduling log; seq doubles
// as the event's name in the dispatch log.
type scheduled struct {
	at        float64
	seq       int
	cancelled bool
}

// checkDispatchOrder drives the engine with a random plan and compares
// it, at several horizons, against the reference. It returns the number
// of events that fired and of chains restarted on a new Node while the
// stale frame was queued. Each choice takes the next byte of plan while
// any is left, then a draw from an RNG seeded with seed.
func checkDispatchOrder(t *testing.T, seed uint64, plan []byte) (int, int) {
	t.Helper()
	const (
		horizon   = 16.0
		budget    = 6000 // generic events; frame chains add theirs
		numChains = 12
	)
	rng := stats.NewRNG(seed)
	pick := func(n int) int {
		if len(plan) == 0 {
			return rng.Intn(n)
		}
		v := int(plan[0]) % n
		plan = plan[1:]
		return v
	}
	s := NewSim()
	rs := &runState{
		nw:  &Network{Nodes: make([]*Node, numChains)},
		sim: s,
	}
	s.run = rs
	var handles [numChains]*nodeHandle // chain id's handle, whichever Node runs it
	for i := range handles {
		handles[i] = new(nodeHandle)
	}

	var (
		log     []*scheduled // every event scheduled, in call order
		fired   []int        // seqs in dispatch order
		rejoins int
		pending = map[uint32]*scheduled{}
		generic int
		// live[id] is the Node that started chain id's current
		// generation (nil while no chain runs), payload[id] what its
		// queued frame carries, sent[id] the frames the handle should
		// have accounted, and starting the Node whose chain
		// scheduleFrames is starting.
		live     [numChains]*Node
		payload  [numChains]int
		sent     [numChains]int
		starting *Node
	)
	// record mirrors the contract on the reference's side: seq in call
	// order, a past time clamped to now.
	record := func(at float64) *scheduled {
		if at < s.Now() {
			at = s.Now()
		}
		e := &scheduled{at: at, seq: len(log)}
		log = append(log, e)
		return e
	}
	// Times sit on a quarter-second grid so duplicates, past times and
	// hits on the horizons (all grid points) are common.
	someTime := func() float64 { return float64(pick(4*horizon+9)-4) / 4 }

	var spawn func()
	// newNode makes a fresh Node for chain id on the chain's handle,
	// standing in the membership at the handle's index. Its frames carry
	// payload 0 or 1 at rate 0: the frame body counts the second kind on
	// the handle as outage frames. Next is called once by scheduleFrames,
	// then by fireFrame for each frame: either way it must be the Node
	// that started the chain.
	newNode := func(id uint32) *Node {
		n := &Node{h: handles[id]}
		n.ID = id
		n.Traffic = trafficFunc(func() (float64, int) {
			if starting != nil {
				if starting != n {
					t.Fatalf("seed %d: chain %d started on node %d's traffic model", seed, starting.ID, id)
				}
				starting = nil
			} else {
				p := pending[id]
				if live[id] != n || p == nil {
					t.Fatalf("seed %d: frame dispatched at %g for a node whose chain %d is not live", seed, s.Now(), id)
				}
				if s.Now() != p.at {
					t.Fatalf("seed %d: frame %d fired at %g, scheduled for %g", seed, p.seq, s.Now(), p.at)
				}
				sent[id] += payload[id]
				if got := handles[id].st.FramesSent; got != sent[id] {
					t.Fatalf("seed %d: handle %d accounted %d frames, its chains sent %d", seed, id, got, sent[id])
				}
				fired = append(fired, p.seq)
			}
			if pick(8) == 0 {
				spawn() // a traffic model may schedule from inside Next
			}
			d := float64(pick(10)-1) / 4
			pending[id] = record(s.Now() + d)
			payload[id] = pick(2)
			return d, payload[id]
		})
		rs.nw.Nodes[id] = n
		return n
	}
	// startChain starts chain id on a new Node, as an activation does.
	startChain := func(id uint32) {
		n := newNode(id)
		live[id], starting = n, n
		rs.scheduleFrames(n)
		if starting != nil {
			t.Fatalf("seed %d: scheduleFrames drew no Next for chain %d", seed, id)
		}
	}
	for id := uint32(0); id < numChains; id++ {
		newNode(id)
	}
	handler := func(e *scheduled) func() {
		return func() {
			if s.Now() != e.at {
				t.Fatalf("seed %d: event %d fired at %g, scheduled for %g", seed, e.seq, s.Now(), e.at)
			}
			fired = append(fired, e.seq)
			for k := pick(3); k > 0; k-- {
				spawn()
			}
		}
	}
	spawn = func() {
		if generic >= budget {
			return
		}
		generic++
		switch pick(4) {
		case 0: // relative, possibly zero or negative
			d := float64(pick(12)-2) / 4
			s.After(d, handler(record(s.Now()+d)))
		case 1: // churn: a live chain is cancelled, as a leave does; an idle one starts
			id := uint32(pick(numChains))
			at := someTime()
			rejoin := pick(3) // after a leave — 0: none, 1: at once, 2: later
			var later float64
			if rejoin == 2 {
				later = someTime()
			}
			e := record(at)
			s.At(at, func() {
				fired = append(fired, e.seq)
				if live[id] == nil {
					startChain(id)
					return
				}
				p := pending[id]
				handles[id].gen++
				p.cancelled = true
				delete(pending, id)
				live[id] = nil
				switch rejoin {
				case 1: // a new Node on the handle while the stale frame is queued
					rejoins++
					startChain(id)
				case 2:
					r := record(later)
					s.At(later, func() {
						fired = append(fired, r.seq)
						if live[id] == nil {
							startChain(id)
						}
					})
				}
			})
		default:
			at := someTime()
			s.At(at, handler(record(at)))
		}
	}

	for id := uint32(0); id < numChains; id++ {
		id := id
		if id%2 == 0 {
			startChain(id)
		} else {
			// Half the chains start mid-run, like an activated joiner.
			at := someTime()
			e := record(at)
			s.At(at, func() {
				fired = append(fired, e.seq)
				if live[id] == nil {
					startChain(id)
				}
			})
		}
	}
	for generic < budget/4 {
		spawn()
	}

	for _, h := range []float64{0, 3.25, 3.25, 9, horizon} {
		s.RunUntil(h)
		var want []int
		ref := append([]*scheduled(nil), log...)
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].at != ref[j].at {
				return ref[i].at < ref[j].at
			}
			return ref[i].seq < ref[j].seq
		})
		due := 0 // events at or before h, stale frames included
		for _, e := range ref {
			if e.at <= h {
				due++
				if !e.cancelled {
					want = append(want, e.seq)
				}
			}
		}
		if len(fired) != len(want) {
			t.Fatalf("seed %d, horizon %g: %d events fired, reference has %d", seed, h, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d, horizon %g: dispatch %d was event %d, reference says %d", seed, h, i, fired[i], want[i])
			}
		}
		if got := s.dispatched(); got != due {
			t.Fatalf("seed %d, horizon %g: engine counts %d dispatched events, reference has %d", seed, h, got, due)
		}
		if s.Now() != h {
			t.Fatalf("seed %d: clock = %g after RunUntil(%g)", seed, s.Now(), h)
		}
	}
	return len(fired), rejoins
}

// frameBranchNetwork is four close-in cameras that between them take
// every exit of the frame body: node 1 fits its 10 Mb/s PHY, node 2
// offers twice what its 6 Mb/s PHY drains (queue drops), node 3 is held
// at rate 0 (outage; envStep 0 never re-adapts it), and node 4 is turned
// 1.8 rad off the AP, so only a side lobe closes its link and a few
// frames in a hundred die in the channel.
func frameBranchNetwork(t *testing.T) *Network {
	t.Helper()
	nw := newTestNetwork(71)
	nw.SetLeaseTTL(0, 0) // no keepalive cycle: frames are the only events
	for i, c := range []struct {
		x, y, turn, demand, mbps float64
	}{
		{2.0, 1.2, 0, 10e6, 8},
		{2.6, 1.9, 0, 6e6, 12},
		{3.2, 2.6, 0, 10e6, 8},
		{5.5, 3.5, 1.8, 10e6, 2},
	} {
		pos := channel.Vec2{X: c.x, Y: c.y}
		pose := channel.Pose{Pos: pos, Orientation: nw.APs[0].Pose.Pos.Sub(pos).Angle() + c.turn}
		if _, err := nw.Join(uint32(i+1), pose, c.demand, HDCamera(c.mbps)); err != nil {
			t.Fatal(err)
		}
	}
	nw.Nodes[2].RateBps = 0
	return nw
}

// TestFrameAccountingIdentity drives the delivered-frame branch — the
// one the outage-only sim-traffic benchmark never executes — and checks
// that every frame sent is accounted exactly once, and dispatched as
// exactly one event.
func TestFrameAccountingIdentity(t *testing.T) {
	nw := frameBranchNetwork(t)
	st := nw.Run(2, 0, 10)
	const frameBits = 8 * 1500
	var sent, delivered, lost, dropped, outage int
	for _, pn := range st.PerNode {
		sent += pn.FramesSent
		d := pn.BitsDelivered / frameBits
		if d != math.Trunc(d) {
			t.Fatalf("node %d delivered %g bits: not whole frames", pn.ID, pn.BitsDelivered)
		}
		if got := int(d) + pn.FramesLost + pn.FramesDropped + pn.FramesOutage; got != pn.FramesSent {
			t.Errorf("node %d: delivered %d + lost %d + dropped %d + outage %d = %d, sent %d",
				pn.ID, int(d), pn.FramesLost, pn.FramesDropped, pn.FramesOutage, got, pn.FramesSent)
		}
		if pn.FramesSent == 0 {
			t.Errorf("node %d sent nothing", pn.ID)
		}
		delivered += int(d)
		lost += pn.FramesLost
		dropped += pn.FramesDropped
		outage += pn.FramesOutage
	}
	if delivered == 0 || lost == 0 || dropped == 0 || outage == 0 {
		t.Errorf("delivered %d, lost %d, dropped %d, outage %d: every branch should have run", delivered, lost, dropped, outage)
	}
	// Frames are the only events, and every one sends.
	if st.Work.Events != sent {
		t.Errorf("Work.Events = %d, want the %d frames sent", st.Work.Events, sent)
	}
}

// TestFrameDispatchAllocatesNothing pins the engine's steady state: a
// Run ten times as long dispatches ten times the frames — through the
// delivered, lost, dropped and outage branches — for the mallocs of the
// short one, which are Run's fixed start (the handle slab, the queue,
// the stats it returns).
func TestFrameDispatchAllocatesNothing(t *testing.T) {
	nw := frameBranchNetwork(t)
	frames := func(d float64) (n int) {
		for _, pn := range nw.Run(d, 0, 10).PerNode {
			n += pn.FramesSent
		}
		return n
	}
	short, long := frames(0.5), frames(5)
	if long-short < 10000 {
		t.Fatalf("long run sent %d frames, short %d: too few to measure", long, short)
	}
	base := testing.AllocsPerRun(5, func() { nw.Run(0.5, 0, 10) })
	full := testing.AllocsPerRun(5, func() { nw.Run(5, 0, 10) })
	// One malloc per thousand frames would be 13 here; the runtime's own
	// strays (a thread starting, the race detector) are a handful.
	if perFrame := (full - base) / float64(long-short); perFrame > 0.001 {
		t.Errorf("Run(5) = %.0f allocs, Run(0.5) = %.0f: %.4f allocs per frame, want 0", full, base, perFrame)
	}
}

// TestRunAllocsIndependentOfFleetSize pins Run's fixed start: a warm,
// churn-free traffic Run makes the same number of allocations over 1 200
// nodes as over 12 000 — the handle slab, the queue and the stats are
// one slice each, whatever their length, and a member reaches its handle
// through the node, not through a per-member table. The bound is the
// count measured on go1.24 amd64. Collection is off while it counts: a
// collection empties the sync.Pool the link evaluation draws its scratch
// from, and refilling it costs a few mallocs that belong to no Run.
func TestRunAllocsIndependentOfFleetSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the link evaluation's scratch under the race detector")
	}
	const bound = 14
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []float64
	for _, nodes := range []int{1200, 12000} {
		nw := joinFleet(t, 1, nodes)
		nw.Run(1, 0.5, 0) // warm: the engine's scratch lists reach their size
		allocs := testing.AllocsPerRun(3, func() { nw.Run(1, 0.5, 0) })
		if allocs > bound {
			t.Errorf("%d nodes: Run made %.0f allocations, want ≤ %d", nodes, allocs, bound)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Errorf("Run made %.0f allocations over 1 200 nodes and %.0f over 12 000: a per-node allocation", counts[0], counts[1])
	}
}

// TestRejoinSameIDKeepsOneHandle: a node that leaves and comes back
// under its ID — twice — keeps one PerNode entry that accumulates across
// the three presence intervals, and each leave ends the frame chain of
// the interval it closes: the frame count is that of the time present,
// not of three chains running on.
func TestRejoinSameIDKeepsOneHandle(t *testing.T) {
	nw := newTestNetwork(81)
	placeNodes(t, nw, 3, 10e6)
	pose := nw.Nodes[0].Pose
	nw.ScheduleLeave(0.2, 1)
	nw.ScheduleJoin(0.5, 1, pose, 10e6, HDCamera(8))
	nw.ScheduleLeave(0.7, 1)
	nw.ScheduleJoin(0.8, 1, pose, 10e6, HDCamera(8))
	st := nw.Run(1, 0, 10)
	if st.Leaves != 2 || st.Joins != 2 || len(st.PerNode) != 3 {
		t.Fatalf("leaves %d, joins %d, %d PerNode entries; want 2, 2, 3", st.Leaves, st.Joins, len(st.PerNode))
	}
	pn := st.PerNode[0]
	if pn.ID != 1 || pn.JoinedAtS != 0 || pn.LeftAtS != 1 {
		t.Fatalf("entry 0 = node %d over [%g, %g], want node 1 over [0, 1]", pn.ID, pn.JoinedAtS, pn.LeftAtS)
	}
	// Present for 0.2 + 0.2 + 0.2 s less the two handshakes' virtual time.
	if pn.ActiveS < 0.55 || pn.ActiveS > 0.6 {
		t.Errorf("ActiveS = %g, want just under 0.6", pn.ActiveS)
	}
	// 8 Mb/s in 1500-byte frames is 667 frames/s while present.
	if want := 667 * pn.ActiveS; math.Abs(float64(pn.FramesSent)-want) > 5 {
		t.Errorf("sent %d frames in %g s present, want ≈%.0f", pn.FramesSent, pn.ActiveS, want)
	}
	if nw.nodeByID(1) == nil {
		t.Error("node 1 should be a member at the end")
	}
}

// tickNetwork is the lazy tick's test bed: 24 exact-coupled nodes under
// two walkers that keep crossing sight lines.
func tickNetwork(t testing.TB, workers int, staleEveryTick bool) *Network {
	t.Helper()
	nw := newTestNetwork(93)
	nw.cutoffDB = exactCutoffDB
	nw.SetCouplingMode(CouplingSparse)
	nw.Workers = workers
	nw.staleEveryTick = staleEveryTick
	nw.Env.AddBlocker(&channel.Blocker{
		Pos: channel.Vec2{X: 3, Y: 2}, Radius: 0.3, LossDB: 12,
		Vel: channel.Vec2{X: 0.8, Y: -0.5},
	})
	nw.Env.AddBlocker(&channel.Blocker{
		Pos: channel.Vec2{X: 1.6, Y: 1.2}, Radius: 0.25, LossDB: 10,
		Vel: channel.Vec2{X: -0.6, Y: 0.9},
	})
	for i := 1; i <= 24; i++ {
		if _, err := nw.Join(uint32(i), churnPose(nw, uint32(i)), 40e6, Telemetry(0.05)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	return nw
}

// tickRate is the tick's rate rule for n at its current report.
func tickRate(nw *Network, n *Node) float64 {
	return nw.cappedRate(n, core.RateForSNR(n.sp.rep.SINRdB, n.widthHz, 1e-6))
}

// TestTickRatesFollowReportsAcrossRuns: after a Run whose last event is a
// tick, every live member holds the tick rule's rate for its final
// report — also when the previous Run ended with a join and a leave after
// its last tick, which left nodes on that Run's finished list. Between
// the Runs every rate is poisoned. In the second Run the walkers stand
// still, so no settle finishes anyone and only the start-of-Run queue
// can bring a member to the first tick; in the third they walk again, so
// the finish pass must feed the ticks.
func TestTickRatesFollowReportsAcrossRuns(t *testing.T) {
	nw := tickNetwork(t, 1, false)
	nw.ScheduleJoin(0.8, 40, churnPose(nw, 40), 40e6, Telemetry(0.05))
	nw.ScheduleLeave(0.85, 3)
	if st := nw.Run(0.95, 0.25, 10); st.Joins != 1 || st.Leaves != 1 {
		t.Fatalf("first Run: %d joins, %d leaves; want 1, 1 after its last tick", st.Joins, st.Leaves)
	}
	for _, n := range nw.Nodes {
		if n.finished {
			t.Fatalf("node %d still flagged as finished after Run", n.ID)
		}
		n.RateBps = -1
	}
	check := func(what string) {
		t.Helper()
		live := 0
		for _, n := range nw.Nodes {
			if n.Down {
				continue
			}
			live++
			if want := tickRate(nw, n); n.RateBps != want {
				t.Errorf("%s: node %d: RateBps %g, want the tick rule's %g at SINR %.2f dB", what, n.ID, n.RateBps, want, n.sp.rep.SINRdB)
			}
		}
		if live < 20 {
			t.Fatalf("%s: %d live members: the scenario lost its fleet", what, live)
		}
	}
	vel := make([]channel.Vec2, len(nw.Env.Blockers))
	for i, b := range nw.Env.Blockers {
		vel[i], b.Vel = b.Vel, channel.Vec2{}
	}
	epoch := nw.Env.Epoch()
	nw.Run(0.5, 0.25, 10) // ticks at 0.25 and 0.5, the horizon
	if nw.Env.Epoch() != epoch {
		t.Fatal("a standing crowd moved the environment epoch")
	}
	check("standing walkers")
	for i, b := range nw.Env.Blockers {
		b.Vel = vel[i]
	}
	nw.Run(1.5, 0.25, 10)
	check("walking again")
}

// TestEnvTickAllocatesNothing pins the environment tick — walker step,
// region mapping, settle, and the rate/sample step over the finished list
// — at zero allocations once warm: a Run with ten times the ticks costs
// the mallocs of the short one, which are Run's fixed start. There is no
// traffic and no keepalive cycle, so ticks are the only events.
func TestEnvTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the link evaluation's scratch under the race detector")
	}
	nw := tickNetwork(t, 1, false)
	nw.SetLeaseTTL(0, 0)
	for _, n := range nw.Nodes {
		n.Traffic = trafficFunc(func() (float64, int) { return 1e9, 0 })
	}
	nw.Run(2, 0.05, 10) // warm: the swept log and every scratch list reach their size
	short := testing.AllocsPerRun(5, func() { nw.Run(0.5, 0.05, 10) })
	long := testing.AllocsPerRun(5, func() { nw.Run(5, 0.05, 10) })
	// 90 more ticks; a malloc per tick would be 90 here, while the
	// runtime's own strays (a thread starting) are a handful.
	if perTick := (long - short) / 90; perTick > 0.05 {
		t.Errorf("Run(5) = %.0f allocs, Run(0.5) = %.0f: %.2f allocs per tick, want 0", long, short, perTick)
	}
}
