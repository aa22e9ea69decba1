package simnet

import (
	"math"
	"slices"
	"sync"

	"mmx/internal/core"
	"mmx/internal/faults"
	"mmx/internal/netctl"
)

// event is one scheduled simulation action, stored by value in the
// queue. A generic event carries fn; a frame event (fn == nil) carries
// its data instead — the node its chain transmits for, the node's stable
// handle and the generation of the chain — so dispatching a frame
// allocates nothing, and the node and the handle load independently.
type event struct {
	at  float64
	seq int // tie-break so ordering is deterministic
	fn  func()

	n   *Node
	h   *nodeHandle
	gen int
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

// every runs body every interval seconds, the first time one interval
// from now. Each run re-arms the next after its body, so the next tick's
// seq follows everything the body scheduled.
func (s *Sim) every(interval float64, body func()) {
	var tick func()
	tick = func() {
		body()
		s.After(interval, tick)
	}
	s.After(interval, tick)
}

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

// dispatched counts the events RunUntil has run so far, stale frame
// events included: every schedule queues one event and every dispatch
// pops one, so nothing on the dispatch path keeps a count.
func (s *Sim) dispatched() int { return s.seq - len(s.q) }

// RunUntil executes events in time order until the queue drains or the
// horizon is reached, and leaves the clock at the horizon.
func (s *Sim) RunUntil(horizon float64) {
	for len(s.q) > 0 && !(s.q[0].at > horizon) {
		e := s.pop()
		s.now = e.at
		if e.fn != nil {
			e.fn()
		} else {
			s.run.fireFrame(e.n, e.h, e.gen)
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

// NodeStats is one node's traffic outcome over a run: counters, and the
// means Run divides out of its running sums when it returns. With
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
	OutageFraction float64
	// AirtimeFraction is the share of the node's time-present (ActiveS)
	// its transmitter was on the air at its adapted rate.
	AirtimeFraction float64
	// MeanDelayS is the average frame latency (queueing + airtime) of
	// transmitted frames.
	MeanDelayS float64
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

// WorkStats counts the work a run did. The counts are exact: the same
// run gives the same counts at any Workers and on any machine.
type WorkStats struct {
	// Events counts the events the engine dispatched: frames (a departed
	// node's stale frame too), ticks, churn and faults.
	Events int
	// MapItems counts the swept-region mapping's work items, one per
	// (region, AP, corridor); CorridorsAimed the items that passed the
	// listener-box test and had their cones aimed (the sector
	// trigonometry); CellsWalked the grid cells their cone walks listed;
	// SlotsVisited the node slots in those cells; LeafTests the nodes the
	// corridor test passed on to the exact leaf test; Staled the nodes the
	// merge marked for re-evaluation.
	MapItems, CorridorsAimed, CellsWalked, SlotsVisited, LeafTests, Staled int
	// LinkEvals counts the eval pass's link evaluations: serving links
	// and cross-AP powers, watched ones included.
	LinkEvals int
	// RoamScreens counts the members the roam checks screened, and
	// RoamTraces the candidate links they traced rather than read cached.
	RoamScreens, RoamTraces int
	// Rerated counts the members the environment ticks' rate/sample step
	// re-rated: those the settles finished since the tick before, and at
	// a Run's first tick the whole membership.
	Rerated int
}

// add adds o's counts to w.
func (w *WorkStats) add(o WorkStats) {
	w.Events += o.Events
	w.MapItems += o.MapItems
	w.CorridorsAimed += o.CorridorsAimed
	w.CellsWalked += o.CellsWalked
	w.SlotsVisited += o.SlotsVisited
	w.LeafTests += o.LeafTests
	w.Staled += o.Staled
	w.LinkEvals += o.LinkEvals
	w.RoamScreens += o.RoamScreens
	w.RoamTraces += o.RoamTraces
	w.Rerated += o.Rerated
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
	// Work counts what the run did, independent of wall time.
	Work WorkStats
	// Joins and Leaves count membership events executed inside the run
	// (scheduled churn plus Join/Leave calls from callbacks): the sums of
	// PerAP's. The starting membership is not counted. JoinsFailed counts
	// mid-run join attempts whose handshake died on the side channel or
	// that named a duplicate ID.
	Joins, Leaves, JoinsFailed int
	// Roams counts successful AP transitions driven by the roaming
	// policy (the sum of PerAP's RoamsIn); RoamsFailed counts attempts
	// whose handshake at the new AP died on the side channel (the node
	// fell back toward its old AP).
	Roams, RoamsFailed int
	// PerAP summarizes each AP's share of the run, indexed by AP
	// registry position (always length == number of APs).
	PerAP []APStats
	// APHistory records every node's association intervals, indexed like
	// PerNode. A node that never roamed has exactly one interval per
	// presence span. Nil for single-AP runs keeps RunStats comparisons
	// cheap.
	APHistory [][]APInterval
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
// under churn, and accumulates presence intervals (into ActiveS) across
// leave/rejoin cycles of the same ID. A member reaches its handle through
// Node.h, and a handle is present exactly while a member's h points at
// it. Its NodeStats are runState.per[ord], the PerNode entry itself; the
// handle holds the run's working sums and no pointer, so the collector
// never scans the slab.
type nodeHandle struct {
	ord       int     // the handle's index in runState.order and per
	joinedAt  float64 // start of the current presence interval
	busyUntil float64 // transmitter occupancy horizon
	gen       int     // bumped on leave: cancels stale frame chains
	payload   int     // drawn for the live chain's queued frame

	// The sums Run divides into the stats' means when it returns.
	sinrAccum  float64
	outages    int
	airtime    float64
	delayAccum float64
	delayed    int

	// The node's pending SINR samples, one run-length: while sampled, it
	// observed sinr at every instant from observation instant from on
	// (runState.instants counts them). flushSamples folds the run into
	// the stats; a new value, a crash or a leave starts the next one.
	sinr    float64
	from    int
	sampled bool
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
	ctl   ControlStats

	joinsFailed, roamsFailed int

	// apStats accumulates RunStats.PerAP, indexed by AP registry
	// position, and with it the run's join, leave, roam and lease-expiry
	// totals. history marks a multi-AP run, whose handles record
	// RunStats.APHistory (one AP has no transitions to record, and large
	// runs shouldn't pay for intervals nobody reads).
	apStats []APStats
	history bool

	// left keeps the handles of IDs that departed during this run — a
	// rejoin under the same ID goes on accumulating into its one entry.
	// order is every handle in first-seen order: the RunStats.PerNode
	// layout. per[i] accumulates order[i]'s RunStats.PerNode entry, which
	// Run's end completes in place, and hists[i] its RunStats.APHistory
	// entry (hists is nil in single-AP runs). Both are the caller's once
	// Run returns. A member's own handle is Node.h.
	// left and pending are made at their first write, so a run without
	// churn allocates neither.
	left  map[uint32]*nodeHandle
	order []*nodeHandle
	per   []NodeStats
	hists [][]APInterval
	// slab holds the starting membership's handles.
	slab []nodeHandle

	pending map[uint32]bool // IDs with a handshake done, activation queued

	// finished lists the members the settles re-finished since the last
	// environment tick (plus, until the first tick, the whole starting
	// membership), each once (Node.finished); the tick re-rates and
	// re-samples exactly these. instants counts the observation instants
	// so far: Run's start, then every tick.
	finished []*Node
	instants int

	// gains holds the rung gains of each channel width the ticks re-rate
	// at, computed at the width's first re-rate in the run (rate).
	gains []widthGains

	// roaming marks a run whose roam checks run, and roamList holds the
	// members they screen: every member that can roam (Node.mayRoam),
	// each once (Node.roamListed), plus departed and unable ones a check
	// drops (roam.go). The check's scratch is grown on demand and kept
	// for the run: roamLanes holds each worker lane's candidates and
	// counts, roamSpans[i] where listed member i's lie, and roamFn is the
	// phase-1 closure par.For runs.
	roaming   bool
	roamList  []*Node
	roamLanes []roamLane
	roamSpans []roamSpan
	roamFn    func(lane, i int)
}

// runStates pools runState values for the buffers they carry: the handle
// slab, the event queue, the order, finished and gains lists and
// the roam check's scratch. A Run takes one and gives it back emptied, so
// the next Run reuses those slices' capacity instead of allocating and
// zeroing them, and the collector frees a runState no Run has taken
// within two collections: a Network holds nothing between Runs.
var runStates = sync.Pool{New: func() any { return &runState{sim: NewSim()} }}

// empty clears everything rs points to but keeps its buffers' capacity,
// for the pool.
func (rs *runState) empty() {
	clear(rs.sim.q)
	clear(rs.order)
	clear(rs.finished)
	clear(rs.roamList)
	for l := range rs.roamLanes {
		clear(rs.roamLanes[l].cand)
		rs.roamLanes[l] = roamLane{cand: rs.roamLanes[l].cand[:0]}
	}
	*rs.sim = Sim{q: rs.sim.q[:0]}
	*rs = runState{
		sim: rs.sim, slab: rs.slab,
		order: rs.order[:0], finished: rs.finished[:0], gains: rs.gains[:0],
		roamList: rs.roamList[:0], roamLanes: rs.roamLanes, roamSpans: rs.roamSpans, roamFn: rs.roamFn,
	}
}

// nowAt maps the current sim time onto one AP controller's clock.
func (rs *runState) nowAt(ap *AccessPoint) float64 {
	return rs.bases[ap.idx] + rs.sim.Now()
}

// widthGains is one channel width's rung gains.
type widthGains struct {
	w float64
	g core.RungGains
}

// rate is core.RateForSNR at channel width w through w's rung gains. A
// fleet re-rates at one width or a few, so the run's list is short.
func (rs *runState) rate(w, sinrDB float64) float64 {
	for i := range rs.gains {
		if rs.gains[i].w == w {
			return rs.gains[i].g.Rate(sinrDB, 1e-6)
		}
	}
	g := core.NewRungGains(w)
	if w == w { // NaN matches no entry: keep none
		rs.gains = append(rs.gains, widthGains{w, g})
	}
	return g.Rate(sinrDB, 1e-6)
}

// apOpen starts an association interval on h at AP index ap; apClose
// seals the open one. Both are no-ops in single-AP runs.
func (rs *runState) apOpen(h *nodeHandle, ap int, at float64) {
	if rs.history {
		rs.hists[h.ord] = append(rs.hists[h.ord], APInterval{AP: ap, FromS: at, ToS: -1})
	}
}

func (rs *runState) apClose(h *nodeHandle, at float64) {
	if !rs.history {
		return
	}
	if iv := rs.hists[h.ord]; len(iv) > 0 && iv[len(iv)-1].ToS < 0 {
		iv[len(iv)-1].ToS = at
	}
}

// newHandle makes h, wiped, the stable accounting slot of an ID first
// seen now. The starting membership's slots are runState.slab; a mid-run
// joiner brings its own.
func (rs *runState) newHandle(h *nodeHandle, id uint32) *nodeHandle {
	*h = nodeHandle{ord: len(rs.order)}
	rs.order = append(rs.order, h)
	rs.per = append(rs.per, NodeStats{ID: id, MinSINRdB: math.Inf(1), JoinedAtS: rs.sim.Now()})
	if rs.history {
		rs.hists = append(rs.hists, nil)
	}
	return h
}

// observe opens every member's sample run at Run's start, observation
// instant 0. A Down node is not sampled: a dead radio has no SINR.
func (rs *runState) observe() {
	for _, n := range rs.nw.Nodes {
		n.h.sinr, n.h.sampled = n.sp.rep.SINRdB, !n.Down
	}
	rs.instants = 1
}

// queueFinished puts a member on the finished list unless it is there.
func (rs *runState) queueFinished(n *Node) {
	if !n.finished {
		n.finished = true
		rs.finished = append(rs.finished, n)
	}
}

// flushSamples folds h's pending run-length into its stats: one SINR
// observation per instant from h.from up to the last one. The values are
// added one by one, as an eager per-tick sampler would have — k·v rounds
// differently — so the accumulators come out bit-identical.
func (rs *runState) flushSamples(h *nodeHandle) {
	k := rs.instants - h.from
	h.from = rs.instants
	if !h.sampled || k == 0 {
		return
	}
	for i := 0; i < k; i++ {
		h.sinrAccum += h.sinr
	}
	st := &rs.per[h.ord]
	st.SINRSamples += k
	if h.sinr < st.MinSINRdB {
		st.MinSINRdB = h.sinr
	}
	if h.sinr < rs.outageSINRdB {
		h.outages += k
	}
}

// envRefresh is the per-environment-step pipeline: settle the
// interference picture after the blockers moved (syncEnv marks only the
// nodes the blockers' swept regions can have touched, and the settle
// passes re-trace and re-sum exactly those), then re-rate and re-sample
// the finished list. A member off the list holds the report, the Down
// state and the rate it held at its last visit — every event that changes
// one goes through a settle that finishes the node — so its rate stands
// and its sample run goes on. A listed live node's PHY rate is re-adapted
// to its SINR in its configured channel bandwidth (rate 0 = outage until
// a later step clears it) and its sample run restarts at the new value.
// The step is serial, so its cost is the list's length, not the fleet's.
func (rs *runState) envRefresh() {
	nw := rs.nw
	nw.core().settle(nw)
	for _, n := range rs.finished {
		n.finished = false
		if !nw.member(n) {
			continue // left since it was finished
		}
		h := n.h
		rs.flushSamples(h)
		h.sampled = !n.Down
		if n.Down {
			continue
		}
		sinr := n.sp.rep.SINRdB
		n.RateBps = nw.cappedRate(n, rs.rate(n.widthHz, sinr))
		h.sinr = sinr
		nw.work.Rerated++
	}
	rs.finished = rs.finished[:0]
	rs.instants++
}

// renewTick is one lease keepalive cycle: renew the living, then expire
// the silent. Renewing first matters: pre-run lossy handshakes consume
// virtual controller time, so an early joiner's last contact can already
// be older than the TTL when Run starts — its first renew must land
// before the expiry check, not after.
func (rs *runState) renewTick() {
	nw, ctl := rs.nw, &rs.ctl
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
// non-member. Every frame event names n itself: while the generation
// matches, the chain is the one started here, and a rejoin under the ID
// is a new Node behind a bumped generation.
func (rs *runState) scheduleFrames(n *Node) {
	rs.nextFrame(n, n.h, n.h.gen)
}

// nextFrame draws the chain's next gap and payload and puts the frame
// event on the queue. gen is the chain's own generation, not h.gen
// re-read: a traffic model that leaves its node from inside Next must
// still end the chain it was called from. The payload waits on the
// handle: a handle has one live chain, so one queued frame that reads it,
// and a stale frame returns before it would.
func (rs *runState) nextFrame(n *Node, h *nodeHandle, gen int) {
	delay, payload := n.Traffic.Next(rs.nw.rng)
	h.payload = payload
	s := rs.sim
	s.schedule(event{at: s.now + delay, n: n, h: h, gen: gen})
}

// fireFrame is the body of a frame event: account the frame at the
// node's adapted rate, then schedule the chain's next one.
func (rs *runState) fireFrame(n *Node, h *nodeHandle, gen int) {
	if h.gen != gen {
		return // the node left: its frame chain ends here
	}
	if payload := h.payload; payload > 0 && !n.Down {
		bits := float64(8 * payload)
		rate := n.RateBps
		st := &rs.per[h.ord]
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
				h.airtime += airtime
				h.delayAccum += queue + airtime
				h.delayed++
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
	rs.nextFrame(n, h, gen)
}

// Run drives the network for duration seconds: blockers walk (re-evaluated
// every envStep), each node's traffic model emits frames, and every frame
// is delivered with probability (1−BER)^bits at the node's instantaneous
// SINR. SINR below outageSINRdB counts as an outage sample.
//
// The control plane runs alongside the data plane: every node renews its
// spectrum lease each SetLeaseTTL interval, the controller expires the
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
	rs := runStates.Get().(*runState)
	sim := rs.sim
	// Every member keeps one frame event pending; the ticks and the churn
	// plan add a handful more.
	sim.q = slices.Grow(sim.q, len(nw.Nodes)+len(nw.pendingChurn)+4)
	bases := make([]float64, len(nw.APs))
	for i, ap := range nw.APs {
		bases[i] = ap.Controller.NowS()
		// The TTL's one way in: only renewTick, inside Run, expires leases.
		ap.Controller.LeaseTTL = nw.leaseTTLS
	}
	rs.nw, rs.outageSINRdB, rs.bases = nw, outageSINRdB, bases
	rs.apStats = make([]APStats, len(nw.APs))
	rs.history = len(nw.APs) > 1
	rs.order = slices.Grow(rs.order, len(nw.Nodes))
	rs.per = make([]NodeStats, 0, len(nw.Nodes)+len(nw.pendingChurn))
	rs.finished = slices.Grow(rs.finished, len(nw.Nodes))
	sim.run = rs
	ctl := &rs.ctl
	nw.run = rs
	defer func() { nw.run = nil }()
	nw.work = WorkStats{}
	// One AP has nowhere to roam: no roam tick keeps its event sequence unchanged.
	rs.roaming = nw.roam != nil && len(nw.APs) > 1

	// The listener boxes only grow between runs; the loop below rebuilds
	// them around what the members listen to now.
	s := nw.core()
	s.resetListeners()
	rs.slab = slices.Grow(rs.slab[:0], len(nw.Nodes))[:len(nw.Nodes)]
	// The starting intervals are one slab, which APHistory returns.
	var ivs []APInterval
	if rs.history {
		ivs = make([]APInterval, len(nw.Nodes))
		rs.hists = make([][]APInterval, 0, cap(rs.per))
	}
	for i, n := range nw.Nodes {
		n.h = rs.newHandle(&rs.slab[i], n.ID)
		if ivs != nil {
			rs.hists[i] = ivs[i : i : i+1]
		}
		rs.apOpen(n.h, n.AP.idx, 0)
		// Rates come from applyAssignment's link evaluation until the first
		// tick, which re-rates the whole starting membership.
		rs.queueFinished(n)
		s.listen(n)
		rs.listRoamer(n)
	}
	s.settle(nw)
	rs.observe()

	if envStep > 0 {
		sim.every(envStep, func() {
			nw.Env.Step(envStep)
			rs.envRefresh()
		})
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
					// leaves the node down until the plan retries; one
					// whose share confirm died has moved its grant off
					// the channel the engine registered.
					before := n.Grant
					if _, err := nw.join(n, rs.nowAt(n.AP)); err != nil {
						if n.Grant != before {
							nw.sparse.unscreen(n)
						}
						return
					}
					n.Down = false
					nw.sparse.updateNode(nw, n, nw.applyAssignment(n))
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

	// The lease keepalive cycle and the roaming policy repeat on their
	// own intervals.
	if nw.renewIntervalS > 0 {
		sim.every(nw.renewIntervalS, rs.renewTick)
	}
	if rs.roaming {
		interval := nw.roam.checkS
		if interval == 0 {
			interval = 0.2
		}
		sim.every(interval, rs.roamTick)
	}

	for _, n := range nw.Nodes {
		rs.scheduleFrames(n)
	}

	sim.RunUntil(duration)
	for _, n := range rs.finished {
		n.finished = false // the next Run starts its own lists
	}
	for _, n := range rs.roamList {
		n.roamListed = false
	}

	st := RunStats{
		Duration: duration, Control: rs.ctl, Work: nw.work,
		JoinsFailed: rs.joinsFailed, RoamsFailed: rs.roamsFailed,
		PerAP: rs.apStats,
	}
	st.Work.Events = sim.dispatched()
	for i := range rs.apStats {
		a := &rs.apStats[i]
		a.AP = i
		st.Joins += a.Joins
		st.Leaves += a.Leaves
		st.Roams += a.RoamsIn
		st.Control.LeaseExpiries += a.LeaseExpiries
	}

	for _, n := range nw.Nodes {
		h := n.h
		rs.apClose(h, duration)
		rs.apStats[n.AP.idx].Members++
		ns := &rs.per[h.ord]
		ns.ActiveS += duration - h.joinedAt
		ns.LeftAtS = duration
		n.h = nil
	}
	for i, h := range rs.order {
		rs.flushSamples(h)
		ns := &rs.per[i]
		if ns.SINRSamples > 0 {
			ns.MeanSINRdB = h.sinrAccum / float64(ns.SINRSamples)
			ns.OutageFraction = float64(h.outages) / float64(ns.SINRSamples)
		} else {
			ns.MinSINRdB = NoSampleSINRdB
			ns.MeanSINRdB = NoSampleSINRdB
		}
		if ns.ActiveS > 0 {
			ns.AirtimeFraction = h.airtime / ns.ActiveS
		}
		if h.delayed > 0 {
			ns.MeanDelayS = h.delayAccum / float64(h.delayed)
		}
	}
	st.PerNode = rs.per
	st.APHistory = rs.hists
	rs.empty()
	runStates.Put(rs)
	return st
}
