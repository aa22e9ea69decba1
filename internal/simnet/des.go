package simnet

import (
	"math"

	"mmx/internal/core"
	"mmx/internal/faults"
	"mmx/internal/netctl"
	"mmx/internal/par"
)

// event is one scheduled simulation action, stored by value in the
// queue. A generic event carries fn; a frame event (fn == nil) carries
// its data instead — the node's stable handle, the generation of the
// traffic chain it belongs to and the payload drawn when it was
// scheduled — so dispatching a frame allocates nothing.
type event struct {
	at  float64
	seq int // tie-break so ordering is deterministic
	fn  func()

	h       *nodeHandle
	gen     int
	payload int
}

// before is the dispatch order: time, then scheduling order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Sim is a minimal deterministic discrete-event engine. Events run in
// (at, seq) order, seq being the order At/After were called in; a time
// in the past (or NaN) is clamped to now, and an event at exactly the
// horizon runs.
type Sim struct {
	now float64
	seq int
	q   []event   // binary min-heap on (at, seq)
	run *runState // receiver of frame events; nil outside Network.Run
}

// NewSim returns an engine at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at an absolute time (clamped to now for past times).
func (s *Sim) At(t float64, fn func()) { s.schedule(event{at: t, fn: fn}) }

// After schedules fn delay seconds from now.
func (s *Sim) After(delay float64, fn func()) { s.At(s.now+delay, fn) }

// schedule stamps e with its clamped time and the next sequence number
// and sifts it up into the heap. The clamp is written so that NaN fails
// it: a NaN time would otherwise order inconsistently against every
// other event and then poison the clock.
func (s *Sim) schedule(e event) {
	if !(e.at >= s.now) {
		e.at = s.now
	}
	s.seq++
	e.seq = s.seq
	q := append(s.q, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	s.q = q
}

// pop removes and returns the earliest event: the last leaf sifts down
// from the root into the hole the minimum left.
func (s *Sim) pop() event {
	q := s.q
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the slot's fn and handle references
	q = q[:n]
	s.q = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// RunUntil executes events in time order until the queue drains or the
// horizon is reached, and leaves the clock at the horizon.
func (s *Sim) RunUntil(horizon float64) {
	for len(s.q) > 0 && !(s.q[0].at > horizon) {
		e := s.pop()
		s.now = e.at
		if e.fn != nil {
			e.fn()
		} else {
			s.run.fireFrame(e.h, e.gen, e.payload)
		}
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// NoSampleSINRdB is the sentinel MinSINRdB and MeanSINRdB take for a
// node that was never SINR-sampled during a run — Down or absent at
// every sampling instant (the environment-step observation points). A
// defined negative-infinity sentinel replaces the +Inf min / zero mean
// garbage of an empty sample set; check SINRSamples == 0 to detect the
// case programmatically. The value equals itself, so whole-RunStats
// equality comparisons stay valid.
var NoSampleSINRdB = math.Inf(-1)

// NodeStats accumulates one node's traffic outcome over a run. With
// in-run churn, a node's stats are keyed by ID and cover exactly its
// presence: traffic accounting starts at join and stops at leave, and
// time-normalized figures (AirtimeFraction) divide by ActiveS, not the
// run duration.
type NodeStats struct {
	ID         uint32
	FramesSent int
	// FramesLost counts channel losses (residual bit errors).
	FramesLost int
	// FramesDropped counts queue overflows: the node's adapted PHY rate
	// could not drain the offered load within the backlog bound.
	FramesDropped int
	// FramesOutage counts frames discarded because the node's adapted
	// rate was 0 — no ladder step closes the link — so transmitting
	// would only burn energy.
	FramesOutage  int
	BitsDelivered float64
	// MinSINRdB and MeanSINRdB summarize the node's sampled SINR. When
	// SINRSamples is 0 (the node was Down or absent at every sampling
	// instant) both hold the NoSampleSINRdB sentinel.
	MinSINRdB  float64
	MeanSINRdB float64
	// SINRSamples counts the sampling instants that observed the node —
	// the denominator of MeanSINRdB and OutageFraction. 0 marks the
	// no-sample case (see NoSampleSINRdB).
	SINRSamples    int
	sinrAccum      float64
	OutageFraction float64
	outages        int
	// AirtimeFraction is the share of the node's time-present (ActiveS)
	// its transmitter was on the air at its adapted rate.
	AirtimeFraction float64
	airtime         float64
	// MeanDelayS is the average frame latency (queueing + airtime) of
	// transmitted frames.
	MeanDelayS float64
	delayAccum float64
	delayed    int
	// JoinedAtS is the sim time the node first became a member during
	// the run (0 for nodes present at start); LeftAtS is the end of its
	// last presence interval (Duration if still present when the run
	// ended).
	JoinedAtS, LeftAtS float64
	// ActiveS is the node's total time-present: the sum of its presence
	// intervals between joins and leaves.
	ActiveS float64
}

// ControlStats counts the fault-tolerant control plane's work during a
// run: keepalives, lease churn and injected failures. All fields are
// plain counters so two runs can be compared for bit-identity.
type ControlStats struct {
	// RenewsSent counts keepalive cycles attempted by live nodes.
	RenewsSent int
	// RenewsFailed counts cycles where every retry died on the side
	// channel (or failed to rejoin after a nack) — the node kept
	// transmitting on its last-known assignment.
	RenewsFailed int
	// Rejoins counts renew-nacks healed through a full re-handshake.
	Rejoins int
	// Resyncs counts renew-acks whose books disagreed with the node —
	// a lost PromoteMsg or post-restart reallocation the ack repaired.
	Resyncs int
	// LeaseExpiries counts leases the controller reclaimed after their
	// holders fell silent.
	LeaseExpiries int
	// Promotions counts PromoteMsg pushes a live node actually applied.
	Promotions int
	// Crashes, Reboots and APRestarts count executed FaultPlan events.
	Crashes, Reboots, APRestarts int
}

// APInterval is one contiguous association of a node with an AP: the AP's
// registry index and the sim-time span. Intervals close at a leave, a
// roam, or the end of the run (never left dangling). A crash does not
// close the interval — the node stays associated while down.
type APInterval struct {
	AP         int
	FromS, ToS float64
}

// APStats aggregates one AP's share of a run.
type APStats struct {
	// AP is the registry index (AccessPoint.Index).
	AP int
	// Joins and Leaves count in-run membership events whose handshake or
	// release ran at this AP; the starting membership is not counted.
	Joins, Leaves int
	// RoamsIn and RoamsOut count successful roam transitions toward and
	// away from this AP.
	RoamsIn, RoamsOut int
	// LeaseExpiries counts leases this AP's controller reclaimed.
	LeaseExpiries int
	// Members is the AP's association count when the run ended.
	Members int
}

// RunStats summarizes a network run. PerNode is ordered by first
// appearance: the starting membership in join order, then mid-run
// joiners in activation order; a node that leaves and rejoins under the
// same ID keeps one entry accumulating across its presence intervals.
type RunStats struct {
	Duration float64
	PerNode  []NodeStats
	// Control summarizes the control plane's fault handling.
	Control ControlStats
	// Joins and Leaves count membership events executed inside the run
	// (scheduled churn plus Join/Leave calls from callbacks); the
	// starting membership is not counted. JoinsFailed counts mid-run
	// join attempts whose handshake died on the side channel or that
	// named a duplicate ID.
	Joins, Leaves, JoinsFailed int
	// Roams counts successful AP transitions driven by the roaming
	// policy; RoamsFailed counts attempts whose handshake at the new AP
	// died on the side channel (the node fell back toward its old AP).
	Roams, RoamsFailed int
	// PerAP summarizes each AP's share of the run, indexed by AP
	// registry position (always length == number of APs).
	PerAP []APStats
	// APHistory records every node's association intervals by node ID.
	// A node that never roamed has exactly one interval per presence
	// span. Nil for single-AP runs keeps RunStats comparisons cheap.
	APHistory map[uint32][]APInterval
}

// TotalGoodputBps returns the aggregate delivered rate.
func (r RunStats) TotalGoodputBps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	total := 0.0
	for _, n := range r.PerNode {
		total += n.BitsDelivered
	}
	return total / r.Duration
}

// nodeHandle is one node's stable accounting slot, keyed by ID for the
// whole run: it survives the node's index in Network.Nodes shifting
// under churn, and accumulates presence intervals across leave/rejoin
// cycles of the same ID.
type nodeHandle struct {
	st        NodeStats
	node      *Node // the member the live frame chain transmits for
	present   bool
	joinedAt  float64 // start of the current presence interval
	activeS   float64 // sum of closed presence intervals
	busyUntil float64 // transmitter occupancy horizon
	gen       int     // bumped on leave: cancels stale frame chains
}

// runState is the live engine state while Run executes. Network.run
// points at it, so membership changes issued mid-run — Join/Leave from
// a traffic or OnMembership callback, ScheduleJoin/ScheduleLeave plans —
// execute at the sim clock through the event heap instead of panicking.
type runState struct {
	nw           *Network
	sim          *Sim
	outageSINRdB float64
	// bases anchor sim time to each AP controller's monotonic clock: a
	// controller may already sit past zero (lossy pre-run handshakes
	// consume virtual time) while sim restarts at zero every Run.
	bases []float64
	ctl   *ControlStats

	joins, leaves, joinsFailed int
	roams, roamsFailed         int

	// apStats accumulates RunStats.PerAP, indexed by AP registry
	// position. apHist accumulates RunStats.APHistory; nil in single-AP
	// runs (no transitions to record, and large runs shouldn't pay for
	// an ID→interval map nobody reads).
	apStats []APStats
	apHist  map[uint32][]APInterval

	// hcache mirrors nw.Nodes: hcache[n.idx] is member n's handle,
	// maintained on every membership change, so neither the per-tick
	// observation loop nor a frame looks anything up by ID. left keeps
	// the handles of IDs that departed during this run — a rejoin under
	// the same ID goes on accumulating into its one entry. order is
	// every handle in first-seen order: the RunStats.PerNode layout.
	hcache []*nodeHandle
	left   map[uint32]*nodeHandle
	order  []*nodeHandle

	pending map[uint32]bool // IDs with a handshake done, activation queued
}

// nowAt maps the current sim time onto one AP controller's clock.
func (rs *runState) nowAt(ap *AccessPoint) float64 {
	return rs.bases[ap.idx] + rs.sim.Now()
}

// apOpen starts an association interval for id at AP index ap; apClose
// seals the open one. Both are no-ops in single-AP runs.
func (rs *runState) apOpen(id uint32, ap int, at float64) {
	if rs.apHist == nil {
		return
	}
	rs.apHist[id] = append(rs.apHist[id], APInterval{AP: ap, FromS: at, ToS: -1})
}

func (rs *runState) apClose(id uint32, at float64) {
	if rs.apHist == nil {
		return
	}
	iv := rs.apHist[id]
	if n := len(iv); n > 0 && iv[n-1].ToS < 0 {
		iv[n-1].ToS = at
	}
}

// newHandle makes h the stable accounting slot of an ID first seen now.
// The starting membership's slots are one slab Run allocates; a mid-run
// joiner brings its own.
func (rs *runState) newHandle(h *nodeHandle, id uint32) *nodeHandle {
	h.st = NodeStats{ID: id, MinSINRdB: math.Inf(1), JoinedAtS: rs.sim.Now()}
	rs.order = append(rs.order, h)
	return h
}

// observe samples the current reports into per-node stats.
func (rs *runState) observe() {
	for i, n := range rs.nw.Nodes {
		if n.Down {
			continue // a dead radio has no SINR to sample
		}
		rs.sample(rs.hcache[i], n.sp.rep.SINRdB)
	}
}

// sample folds one SINR observation into a node's stats.
func (rs *runState) sample(h *nodeHandle, sinrDB float64) {
	st := &h.st
	st.sinrAccum += sinrDB
	st.SINRSamples++
	if sinrDB < st.MinSINRdB {
		st.MinSINRdB = sinrDB
	}
	if sinrDB < rs.outageSINRdB {
		st.outages++
	}
}

// envRefresh is the per-environment-step pipeline: settle the
// interference picture after the blockers moved (syncEnv marks only the
// nodes the blockers' swept regions can have touched, and the settle
// passes re-trace and re-sum exactly those), then one rate/sample pass
// over the membership re-adapts every live node's PHY rate (the reports
// hold each node's SINR in its configured channel bandwidth, what the
// ladder walk wants; rate 0 = outage until a later step clears it) and
// accumulates the observation samples. The pass writes only per-node
// state (the node itself and its stats handle), so a fixed-seed run is
// byte-identical at any worker count.
func (rs *runState) envRefresh() {
	nw := rs.nw
	nw.core().settle(nw)
	nodes := nw.Nodes
	hcache := rs.hcache
	par.For(nw.Workers, len(nodes), func(_, i int) {
		n := nodes[i]
		if n.Down {
			return
		}
		n.RateBps = nw.cappedRate(n, core.RateForSNR(n.sp.rep.SINRdB, n.Link.Cfg.BandwidthHz, 1e-6))
		rs.sample(hcache[i], n.sp.rep.SINRdB)
	})
}

// maxBacklogS bounds per-node queueing: frames older than this are
// dropped rather than queued.
const maxBacklogS = 0.05

// scheduleFrames starts (or restarts, after a rejoin) node n's traffic
// chain: each frame draws its gap and payload from the node's traffic
// model, occupies transmitter airtime at the adapted rate, and is
// delivered with probability (1−BER)^bits. The chain is generation-
// stamped: a leave bumps the handle's gen, so an in-flight frame event
// of a departed node expires silently instead of transmitting for a
// non-member.
func (rs *runState) scheduleFrames(n *Node) {
	h := rs.hcache[n.idx]
	h.node = n
	rs.nextFrame(h, h.gen)
}

// nextFrame draws the chain's next gap and payload and puts the frame
// event on the queue. gen is the chain's own generation, not h.gen
// re-read: a traffic model that leaves its node from inside Next must
// still end the chain it was called from.
func (rs *runState) nextFrame(h *nodeHandle, gen int) {
	delay, payload := h.node.Traffic.Next(rs.nw.rng)
	s := rs.sim
	s.schedule(event{at: s.now + delay, h: h, gen: gen, payload: payload})
}

// fireFrame is the body of a frame event: account the frame at the
// node's adapted rate, then schedule the chain's next one.
func (rs *runState) fireFrame(h *nodeHandle, gen, payload int) {
	if h.gen != gen {
		return // the node left: its frame chain ends here
	}
	n := h.node
	if payload > 0 && !n.Down {
		bits := float64(8 * payload)
		rate := n.RateBps
		st := &h.st
		st.FramesSent++
		if rate <= 0 {
			// Outage: no ladder step closes the link, so the frame is
			// discarded instead of transmitted at a hopeless rate.
			st.FramesOutage++
		} else {
			airtime := bits / rate
			now := rs.sim.Now()
			if h.busyUntil < now {
				h.busyUntil = now
			}
			queue := h.busyUntil - now
			if queue > maxBacklogS {
				// The adapted rate cannot drain the offered load.
				st.FramesDropped++
			} else {
				h.busyUntil += airtime
				st.airtime += airtime
				st.delayAccum += queue + airtime
				st.delayed++
				ber := n.sp.rep.BER
				pSuccess := math.Pow(1-ber, bits)
				if rs.nw.rng.Float64() < pSuccess {
					st.BitsDelivered += bits
				} else {
					st.FramesLost++
				}
			}
		}
	}
	rs.nextFrame(h, gen)
}

// Run drives the network for duration seconds: blockers walk (re-evaluated
// every envStep), each node's traffic model emits frames, and every frame
// is delivered with probability (1−BER)^bits at the node's instantaneous
// SINR. SINR below outageSINRdB counts as an outage sample.
//
// The control plane runs alongside the data plane: every node renews its
// spectrum lease each Control.RenewIntervalS, the controller expires the
// leases of nodes that fell silent (reclaiming their spectrum through the
// churn-safe promote path), and an installed faults.Plan injects node
// crash/reboot and AP restart events mid-run. Each environment step also
// re-adapts every live node's PHY rate to the fresh interference picture,
// so a blockage-driven SINR collapse downshifts the ladder in-run — or
// marks the node in outage (rate 0) until the blocker clears. Everything
// is driven by seeded RNGs, so a run is a pure function of (seed,
// SideChannel seed, Plan, churn schedule).
//
// Membership is a first-class simulation event: ScheduleJoin and
// ScheduleLeave plan churn at absolute sim times, and Join/Leave called
// from inside the run (traffic-model or OnMembership callbacks) execute
// at the current sim clock through the same lossy handshake and
// release-retry machinery as pre-run churn. Per-node accounting is keyed
// by ID in stable handles, so stats follow the node — not a slice slot —
// through arbitrary membership change; time-normalized figures divide by
// each node's time-present (NodeStats.ActiveS). Run itself is not
// reentrant and panics if nested.
func (nw *Network) Run(duration, envStep, outageSINRdB float64) RunStats {
	if nw.run != nil {
		panic("simnet: Run is not reentrant")
	}
	sim := NewSim()
	// Every member keeps one frame event pending; the ticks and the churn
	// plan add a handful more.
	sim.q = make([]event, 0, len(nw.Nodes)+len(nw.pendingChurn)+4)
	bases := make([]float64, len(nw.APs))
	for i, ap := range nw.APs {
		bases[i] = ap.Controller.NowS()
		ap.Controller.LeaseTTL = nw.Control.LeaseTTLS
	}
	var ctl ControlStats
	rs := &runState{
		nw:           nw,
		sim:          sim,
		outageSINRdB: outageSINRdB,
		bases:        bases,
		ctl:          &ctl,
		apStats:      make([]APStats, len(nw.APs)),
		hcache:       make([]*nodeHandle, len(nw.Nodes)),
		left:         map[uint32]*nodeHandle{},
		order:        make([]*nodeHandle, 0, len(nw.Nodes)),
		pending:      map[uint32]bool{},
	}
	sim.run = rs
	// APHistory is nil for one AP: an entry per node would cost single-AP fleets heap.
	if len(nw.APs) > 1 {
		rs.apHist = make(map[uint32][]APInterval, len(nw.Nodes))
	}
	nw.run = rs
	defer func() { nw.run = nil }()

	slab := make([]nodeHandle, len(nw.Nodes))
	for i, n := range nw.Nodes {
		h := rs.newHandle(&slab[i], n.ID)
		h.present = true
		rs.hcache[i] = h
		rs.apOpen(n.ID, n.AP.idx, 0)
	}
	nw.core().settle(nw)
	rs.observe()

	var envTick func()
	envTick = func() {
		nw.Env.Step(envStep)
		rs.envRefresh()
		sim.After(envStep, envTick)
	}
	if envStep > 0 {
		sim.After(envStep, envTick)
	}

	// Scheduled fault injection. Targets are resolved by ID at event
	// time — a crash or reboot naming a node that has since left is a
	// no-op.
	if nw.Faults != nil {
		for _, fe := range nw.Faults.Sorted() {
			fe := fe
			switch fe.Kind {
			case faults.NodeCrash:
				sim.At(fe.At, func() {
					if n := nw.nodeByID(fe.NodeID); n != nil && !n.Down {
						n.Down = true
						nw.sparse.powerChanged(n)
						ctl.Crashes++
						nw.core().settle(nw)
					}
				})
			case faults.NodeReboot:
				sim.At(fe.At, func() {
					n := nw.nodeByID(fe.NodeID)
					if n == nil || !n.Down {
						return
					}
					ctl.Reboots++
					// Rejoin through the full lossy handshake; if its
					// old lease survived, the AP idempotently re-grants
					// the same spectrum. A handshake that dies entirely
					// leaves the node down until the plan retries.
					if _, err := nw.join(n, rs.nowAt(n.AP)); err != nil {
						return
					}
					n.Down = false
					nw.applyAssignment(n)
					nw.sparse.updateNode(nw, n)
					nw.core().settle(nw)
				})
			case faults.APRestart:
				if fe.AP < 0 || fe.AP >= len(nw.APs) {
					continue // the plan names an AP this network lacks
				}
				ap := nw.APs[fe.AP]
				sim.At(fe.At, func() {
					ap.down = true
					ctl.APRestarts++
				})
				sim.At(fe.At+fe.DownFor, func() {
					// The AP returns with empty volatile books; nodes
					// keep transmitting on last-known assignments and
					// re-sync via renew-nack → rejoin.
					ap.down = false
					ap.Controller.Restart()
				})
			}
		}
	}

	// Pre-planned churn moves onto the event heap; the plan is consumed
	// so a subsequent Run starts clean.
	for _, ce := range nw.pendingChurn {
		rs.schedule(ce)
	}
	nw.pendingChurn = nil

	// Lease keepalive cycle: renew the living, then expire the silent.
	// Renewing first matters: pre-run lossy handshakes consume virtual
	// controller time, so an early joiner's last contact can already be
	// older than the TTL when Run starts — its first renew must land
	// before the expiry check, not after.
	var renewTick func()
	renewTick = func() {
		changed := false
		for _, n := range nw.Nodes {
			if n.Down {
				continue
			}
			ctl.RenewsSent++
			switch nw.renew(n, rs.nowAt(n.AP)) {
			case netctl.RenewResynced:
				ctl.Resyncs++
				changed = true
			case netctl.RenewRejoined:
				ctl.Rejoins++
				changed = true
			case netctl.RenewLost, netctl.RenewFailed:
				ctl.RenewsFailed++
			}
		}
		for _, ap := range nw.APs {
			expired := ap.Controller.ExpireLeases(rs.nowAt(ap))
			ctl.LeaseExpiries += len(expired)
			rs.apStats[ap.idx].LeaseExpiries += len(expired)
			if len(expired) > 0 {
				// Reclaimed spectrum may promote surviving sharers; the
				// pushes ride the same lossy side channel, and a lost one
				// is repaired by the promoted node's next renew ack.
				ctl.Promotions += nw.pushNotifications(ap, false)
				changed = true
			}
		}
		// A stray entry the TTL (or a restart) has since reclaimed stops
		// being a tolerated exception — drop it so ValidateSpectrum's
		// double-association check regains its full strength.
		for id, ap := range nw.strays {
			if !ap.Controller.HoldsLease(id) {
				delete(nw.strays, id)
			}
		}
		if changed {
			nw.core().settle(nw)
		}
		sim.After(nw.Control.RenewIntervalS, renewTick)
	}
	if nw.Control.RenewIntervalS > 0 {
		sim.After(nw.Control.RenewIntervalS, renewTick)
	}

	// Roaming policy tick. One AP has nowhere to roam: no tick keeps its event sequence unchanged.
	if nw.Roam != nil && len(nw.APs) > 1 {
		interval := nw.Roam.CheckIntervalS
		if interval <= 0 {
			interval = 0.2
		}
		var roamTick func()
		roamTick = func() {
			rs.roamTick()
			sim.After(interval, roamTick)
		}
		sim.After(interval, roamTick)
	}

	for _, n := range nw.Nodes {
		rs.scheduleFrames(n)
	}

	sim.RunUntil(duration)

	for _, n := range nw.Nodes {
		rs.apClose(n.ID, duration)
		rs.apStats[n.AP.idx].Members++
	}
	for i := range rs.apStats {
		rs.apStats[i].AP = i
	}

	perNode := make([]NodeStats, 0, len(rs.order))
	for _, h := range rs.order {
		if h.present {
			h.activeS += duration - h.joinedAt
			h.st.LeftAtS = duration
			h.present = false
		}
		st := h.st
		st.ActiveS = h.activeS
		if st.SINRSamples > 0 {
			st.MeanSINRdB = st.sinrAccum / float64(st.SINRSamples)
			st.OutageFraction = float64(st.outages) / float64(st.SINRSamples)
		} else {
			st.MinSINRdB = NoSampleSINRdB
			st.MeanSINRdB = NoSampleSINRdB
		}
		if st.ActiveS > 0 {
			st.AirtimeFraction = st.airtime / st.ActiveS
		}
		if st.delayed > 0 {
			st.MeanDelayS = st.delayAccum / float64(st.delayed)
		}
		perNode = append(perNode, st)
	}
	return RunStats{
		Duration: duration, PerNode: perNode, Control: ctl,
		Joins: rs.joins, Leaves: rs.leaves, JoinsFailed: rs.joinsFailed,
		Roams: rs.roams, RoamsFailed: rs.roamsFailed,
		PerAP: rs.apStats, APHistory: rs.apHist,
	}
}
