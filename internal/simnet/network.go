package simnet

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"mmx/internal/antenna"
	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/faults"
	"mmx/internal/mac"
	"mmx/internal/netctl"
	"mmx/internal/rf"
	"mmx/internal/stats"
	"mmx/internal/tma"
)

// Node is one IoT device attached to the network.
type Node struct {
	// Session is the node's control-protocol state — ID, Demand, the
	// Assignment it transmits on (for SDM-sharing nodes, the shared
	// channel), Shared — and the netctl verbs that move it: the same
	// code the socket client runs.
	netctl.Session
	Pose    channel.Pose
	Traffic TrafficModel
	// SDMHarmonic is the TMA harmonic the node's angle-of-arrival maps
	// onto (the AP learns it during initialization). It is what
	// separates co-channel nodes. The Session's Harmonic is the copy
	// the AP's books last confirmed; this one follows the node's pose.
	SDMHarmonic int
	// avec is what the serving AP's TMA sees of the node: avec[k] is the
	// suppression (dB) a receiver on harmonic slot k sees from it — the
	// leak of its gain table into slot k against its own harmonic. aimAt
	// writes it once per admission or pose change; the pair kernel, the
	// host-channel search and the channel minima read it.
	avec []float64
	// RateBps is the node's adapted PHY rate: the fastest ladder step
	// its SNR sustains at BER ≤ 1e-6, capped by what its channel width
	// carries. Frames occupy airtime at this rate. 0 means the link
	// cannot close at any ladder step — the node is in outage and its
	// frames are dropped rather than transmitted at a hopeless rate.
	RateBps float64
	// widthHz is the channel width applyAssignment last applied: the
	// receiver bandwidth the node's link is evaluated and rated at. It
	// is not always Assignment.WidthHz — a reboot rejoin whose share
	// confirm dies moves the Assignment of a node that stays Down.
	widthHz float64
	// AP is the access point currently serving the node — set when the
	// node is built (newNode), switched by the roaming policy.
	AP *AccessPoint
	// Down marks a crashed node: it neither transmits nor renews its
	// lease until a FaultPlan reboot brings it back through the full
	// join handshake.
	Down bool
	// finished marks the node as queued on the run's finished list (the
	// nodes the next environment tick re-rates and re-samples), and
	// roamListed on the run's roam list (the members a roam check
	// screens). They live here, not in sp, because enterSparse zeroes sp
	// mid-run.
	finished, roamListed bool
	// nearest marks a node that no AP of the registry lies strictly
	// closer to than its serving AP, by the roam screen's own distances.
	// It is set wherever the pose or the serving AP changes: newNode,
	// MoveNode, rehome.
	nearest bool
	// roamHoldUntil is the sim time before which the roaming policy will
	// not move this node again (the roam dwell after the last attempt).
	roamHoldUntil float64
	// idx is the node's current position in Network.Nodes, maintained on
	// every membership change so lookups never scan the slice. Stale the
	// instant the node leaves.
	idx int
	// h is the node's accounting handle while it is a member inside Run:
	// set at Run's start or at its activation, nil outside Run.
	h *nodeHandle
	// sp is the node's interference-engine state (see coupling_sparse.go).
	sp spNode
}

// Network is the full mmX deployment.
type Network struct {
	Env *channel.Environment
	// APs is the AP registry: the construction-time AP at index 0 plus
	// every AddAP. Static once nodes join. A single-AP network is a
	// registry of one.
	APs []*AccessPoint
	// band is the full network band APs allocate from until PlanReuse
	// partitions it.
	band mac.Band
	// roam, when non-nil in a multi-AP network, re-associates nodes
	// toward stronger APs during Run (see SetRoamingPolicy).
	roam *RoamPolicy
	// strays tracks leases known to be stranded mid-roam: the node moved
	// to a new AP but its release at the old one died on the side
	// channel, so the old books still show it until the lease TTL
	// reclaims it. ValidateSpectrum excuses exactly these entries from
	// the no-double-association invariant.
	strays map[uint32]*AccessPoint
	Nodes  []*Node
	// linkTemplate is the shared link budget; each node's link evaluates
	// at it with the node's channel width (linkCfg).
	linkTemplate core.LinkConfig
	// NodeBeams is the beam pair every node carries (defaults to the
	// standard two-element orthogonal pair; a 60 GHz deployment can use
	// antenna.NewNarrowNodeBeams since the shorter wavelength fits more
	// elements in the same aperture). Fixed once the first node joins,
	// like APs.
	NodeBeams antenna.NodeBeams
	// Workers caps the evaluation engine's parallel fan-out: 0 uses
	// GOMAXPROCS, 1 forces the serial path. Parallel and serial results
	// are bit-identical (each node writes only its own output slot).
	Workers int
	// Side is the control side channel. nil is a perfect channel;
	// install a seeded faults.SideChannel to make the WiFi/Bluetooth
	// handshake lossy.
	Side *faults.SideChannel
	// Faults schedules in-run node crash/reboot and AP restart events.
	Faults *faults.Plan
	// retry is defaultRetry; tests may change it.
	retry netctl.Retrier
	// leaseTTLS and renewIntervalS are the keepalive cycle (SetLeaseTTL).
	leaseTTLS, renewIntervalS float64
	// ctrlRNG jitters the control plane's retry backoff without
	// perturbing the traffic RNG stream.
	ctrlRNG *stats.RNG
	// air carries every control exchange; exchanges never overlap, so
	// one carrier serves them all.
	air airCarrier
	rng *stats.RNG
	// OnMembership, if non-nil, is invoked after every membership event
	// applied inside Run — "join", "leave" or "roam", with the node's ID
	// — with the network already in its post-event state. Tests and tools
	// use it to audit ValidateSpectrum after each event; it executes at
	// the sim clock inside the event loop, so keep it cheap and
	// deterministic. A "roam" fires in the middle of a roam check, which
	// screens every node's pose and report as they stood when the check
	// began (see RoamPolicy): a node this callback moves is screened at
	// its new pose from the next check on.
	OnMembership func(event string, id uint32)
	// nodeIdx maps live node IDs to their membership entries, maintained
	// on every membership change, so ID lookups are O(1) at any scale.
	nodeIdx map[uint32]*Node
	// couplingMode selects when the engine starts pruning: CouplingAuto
	// once membership first reaches sparseCrossover, CouplingSparse from
	// the first join (see coupling_sparse.go).
	couplingMode CouplingMode
	// cutoffDB is a test hook: it offsets the pruning engine's
	// edge-admission threshold from each victim's noise floor, so a pair
	// whose worst-case coupled power is provably below
	// noise·10^(cutoffDB/10) is never stored. 0 (every binary's value)
	// cuts exactly at the noise floor.
	cutoffDB float64
	// staleEveryTick is a test hook: the engine ignores the swept
	// log and re-evaluates the whole membership on every environment
	// epoch change — the oracle region invalidation is pinned
	// byte-identical to (TestRegionRunMatchesStaleEverything).
	staleEveryTick bool
	// discWalk is a test hook: when set, victim-side discovery takes
	// each victim's sources from it instead of audibleIn — the disc walk
	// the slot screens replaced, which the lossy discovery runs are pinned
	// edge-order-identical to (TestDiscoveryMatchesDiscWalk).
	discWalk func(v *Node) []inEdge
	// roamCheck is a test hook: when set, every roam check calls it once
	// its screen has run, so a scan of every member with fresh traces can
	// be compared with the members it screened and the candidates it
	// found (TestRoamCheckMatchesFullScan).
	roamCheck func()
	// sparse is the interference engine, nil until first needed (core).
	sparse *sparseState
	// work counts the engine's mapping and eval-pass work (Events aside)
	// since the last Run started, which reports it.
	work WorkStats
	// run points at the live engine state while Run executes; membership
	// changes issued mid-run route through it onto the event heap.
	run *runState
	// pendingChurn holds ScheduleJoin/ScheduleLeave events planned
	// before Run starts; Run moves them onto its event heap.
	pendingChurn []churnEvent
}

// New builds a network in an environment with the AP at apPose, operating
// in the 24 GHz ISM band.
func New(env *channel.Environment, apPose channel.Pose, seed uint64) *Network {
	return NewWithBand(env, apPose, seed, mac.ISM24GHz())
}

// NewWithBand builds a network over an arbitrary spectrum band (e.g.
// mac.Unlicensed60GHz for the 7 GHz band §7a points to). The environment's
// carrier frequency should sit inside the band.
func NewWithBand(env *channel.Environment, apPose channel.Pose, seed uint64, band mac.Band) *Network {
	nw := &Network{
		Env:            env,
		band:           band,
		linkTemplate:   core.DefaultLinkConfig(),
		NodeBeams:      antenna.NewNodeBeams(),
		retry:          defaultRetry,
		leaseTTLS:      1,
		renewIntervalS: 0.3,
		ctrlRNG:        stats.NewRNG(seed ^ 0xC0117A01),
		rng:            stats.NewRNG(seed),
		nodeIdx:        make(map[uint32]*Node),
		strays:         make(map[uint32]*AccessPoint),
	}
	nw.installAP(apPose)
	return nw
}

// ErrJoinFailed reports a node the AP could not admit: the handshake's
// own sentinel, which the duplicate-ID refusals here also wrap.
var ErrJoinFailed = netctl.ErrJoinFailed

// SetCouplingMode selects when the interference engine starts pruning.
// CouplingAuto (the default) stores every pair until membership first
// reaches the crossover size; CouplingSparse prunes from now on, so it
// builds the pruning engine immediately — for the current membership if
// the graph is still exact — and derives its power bound from the
// hardware configured at this call.
func (nw *Network) SetCouplingMode(m CouplingMode) {
	nw.couplingMode = m
	if m == CouplingSparse && (len(nw.Nodes) == 0 || nw.sparse.exact) {
		nw.enterSparse()
	}
}

// member reports whether n is in the membership now: a node's idx is
// stale the instant it leaves, so the entry there is checked to be n.
func (nw *Network) member(n *Node) bool {
	return n.idx < len(nw.Nodes) && nw.Nodes[n.idx] == n
}

// nodeByID returns the live membership entry for id, or nil. Membership
// is looked up by ID at event time — never by index captured earlier —
// so churn can reorder Nodes freely.
func (nw *Network) nodeByID(id uint32) *Node {
	return nw.nodeIdx[id]
}

// registerNode appends a node to the membership list, indexes it by ID
// and hooks it into the interference engine. Every admission path
// (pre-run Join and in-run activation) goes through here so Node.idx and
// nodeIdx never drift from Nodes. ev is the evaluation applyAssignment
// ran for the node, which the engine adopts (seedEval). The join that
// brings a CouplingAuto membership to sparseCrossover rebuilds the graph
// pruned instead.
func (nw *Network) registerNode(n *Node, ev core.Evaluation) {
	s := nw.core()
	n.idx = len(nw.Nodes)
	nw.Nodes = append(nw.Nodes, n)
	nw.nodeIdx[n.ID] = n
	if s.exact && len(nw.Nodes) >= sparseCrossover {
		nw.enterSparse() // the newcomer included
		return
	}
	s.addNode(nw, n, ev)
}

// unregisterNodeAt removes the node at index k from the membership and
// the interference engine. The shift-remove keeps the membership order
// stable (renewTick iteration order and the fingerprints depend on it);
// the trailing idx refresh is plain field writes, far cheaper than
// rebuilding a map.
func (nw *Network) unregisterNodeAt(k int) {
	n := nw.Nodes[k]
	nw.Nodes = append(nw.Nodes[:k], nw.Nodes[k+1:]...)
	delete(nw.nodeIdx, n.ID)
	for i := k; i < len(nw.Nodes); i++ {
		nw.Nodes[i].idx = i
	}
	nw.sparse.removeNode(n)
}

// Join runs the initialization protocol for one node (the WiFi/Bluetooth
// handshake of §7a) and installs it into the network. The handshake goes
// through the control side channel: with a lossy SideChannel installed it
// is driven by the retry state machine, and Join fails only when every
// attempt dies. A duplicate node ID — one already in the membership list,
// even crashed — is rejected with a wrapped ErrJoinFailed before any
// spectrum is touched.
//
// Called while Run is executing (from a traffic-model or OnMembership
// callback), the join becomes a membership event at the current sim
// clock: the handshake runs through the same retry machinery on the
// controller's anchored timeline, and the node goes on the air — joins
// the interference picture, starts its traffic, begins its presence
// interval — once the handshake's virtual time has elapsed.
func (nw *Network) Join(id uint32, pose channel.Pose, demandBps float64, traffic TrafficModel) (*Node, error) {
	if rs := nw.run; rs != nil {
		return rs.joinNow(id, pose, demandBps, traffic)
	}
	if nw.nodeByID(id) != nil {
		return nil, fmt.Errorf("%w: duplicate node ID %d", ErrJoinFailed, id)
	}
	n := nw.newNode(id, pose, demandBps, traffic)
	ap := n.AP
	if _, err := nw.join(n, ap.Controller.NowS()); err != nil {
		return nil, err
	}
	nw.registerNode(n, nw.applyAssignment(n))
	return n, nil
}

// newNode builds the not-yet-admitted node both join paths hand to the
// handshake: homed on the AP selectAP picks for its position, with the
// harmonic slot the TMA hashes its angle-of-arrival into (the AP learns
// the slot when the node joins).
func (nw *Network) newNode(id uint32, pose channel.Pose, demandBps float64, traffic TrafficModel) *Node {
	n := &Node{Session: netctl.Session{ID: id, Demand: demandBps}, Pose: pose, Traffic: traffic}
	n.AP = nw.selectAP(pose.Pos)
	n.nearest = true // selectAP picks an AP no other is strictly closer than
	n.aimAt(n.AP)
	return n
}

// aimAt derives what ap's TMA sees of the node where it stands: from the
// gain table at its angle of arrival, the harmonic slot that angle hashes
// into and the suppression vector avec. It runs wherever the pose or the
// serving AP changes — newNode, MoveNode, rehome — so both are computed
// once per such event and are current whenever the node is a member. The
// table itself lives on the stack for the call.
func (n *Node) aimAt(ap *AccessPoint) {
	var buf [33]complex128 // arrays up to N=32 aim without allocating
	tbl := ap.SDM.GainTableInto(buf[:0], ap.Pose.AngleTo(n.Pose.Pos))
	n.SDMHarmonic = tma.BestHarmonicOf(tbl)
	n.avec = suppressionVector(n.avec, tbl, n.SDMHarmonic)
}

// suppressionVector writes into dst's storage, per harmonic slot k of the
// gain table tbl, the suppression a receiver on slot k sees from a
// transmitter on harmonic h: its own amplitude against its leak into k.
func suppressionVector(dst []float64, tbl []complex128, h int) []float64 {
	if cap(dst) < len(tbl) {
		dst = make([]float64, len(tbl))
	}
	dst = dst[:len(tbl)]
	own := cmplx.Abs(tbl[h+(len(tbl)-1)/2])
	for k, g := range tbl {
		dst[k] = tmaSuppressionDB(own, cmplx.Abs(g))
	}
	return dst
}

// nodeSwitch is the SPDT switch every node carries, the ADRF5020; the
// engine's power bound (sparsePowerBoundConst) reads the same model.
var nodeSwitch = rf.NewADRF5020()

// linkCfg is node n's link budget: the shared template at the channel
// width applyAssignment last applied.
func (nw *Network) linkCfg(n *Node) core.LinkConfig {
	cfg := nw.linkTemplate
	cfg.BandwidthHz = n.widthHz
	return cfg
}

// evaluate is node n's link budget toward ap — its serving AP or any
// other — where the node stands now. The link is assembled from the
// deployment's own parts for this one call: the beam pair and switch
// every node carries, ap's pose and antenna, n's link budget. So an
// evaluation sees the same hardware the engine's power bound was derived
// from, and nothing per node outlives the call.
func (nw *Network) evaluate(n *Node, ap *AccessPoint) core.Evaluation {
	l := core.Link{
		Env:       nw.Env,
		Node:      n.Pose,
		AP:        ap.Pose,
		Beams:     nw.NodeBeams,
		APPattern: ap.Pattern,
		Switch:    nodeSwitch,
		Cfg:       nw.linkCfg(n),
	}
	return l.EvaluateWithClass()
}

// applyAssignment (re)derives a node's channel width and adapted PHY
// rate from its current spectrum assignment — used at join and again when
// a release promotes the node from SDM sharer to FDM owner or a renew ack
// re-syncs it after an AP restart. It returns the link evaluation it ran,
// which the caller hands to the engine (addNode, updateNode).
func (nw *Network) applyAssignment(n *Node) core.Evaluation {
	n.widthHz = n.Assignment.WidthHz
	// Adapt the PHY rate to the link (switch-speed scaling, §5.1),
	// bounded by what the allocated channel width can carry. Rate 0 —
	// the ladder cannot close the link at all — marks the node in
	// outage; Run drops its frames instead of transmitting hopelessly.
	ev := nw.evaluate(n, n.AP)
	n.RateBps = nw.cappedRate(n, core.RateForSNR(ev.SNRWithOTAM, n.widthHz, 1e-6))
	return ev
}

// cappedRate bounds an adapted ladder rate by what the node's allocated
// channel width can carry.
func (nw *Network) cappedRate(n *Node, rate float64) float64 {
	if rateCap := n.Assignment.WidthHz / 1.25; rate > rateCap {
		return rateCap
	}
	return rate
}

// Leave removes a node and releases its spectrum churn-safely: if the
// leaver was the FDM owner of a channel that SDM sharers still occupy, the
// controller promotes the widest sharer to owner (PromoteMsg) instead of
// returning the occupied channel to the free pool, and the promoted node
// is flipped to exclusive operation here.
//
// A live leaver's release rides the retry machinery over the (possibly
// lossy) side channel, and a release that dies entirely is reclaimed by
// the lease TTL; a crashed leaver's books entry is released at the
// controller directly (Network.release).
//
// Called while Run is executing, the leave becomes a membership event at
// the current sim clock: promote pushes are delivered lossily like any
// in-run notification (a lost one heals at the promoted node's next renew
// ack), and the leaver's presence interval closes for the run's stats.
func (nw *Network) Leave(id uint32) {
	if rs := nw.run; rs != nil {
		rs.leaveNow(id)
		return
	}
	leaver := nw.nodeByID(id)
	if leaver != nil {
		ap := leaver.AP
		nw.unregisterNodeAt(leaver.idx)
		nw.release(ap, leaver, ap.Controller.NowS())
		delete(nw.strays, id)
		// The leaver is gone from the membership list, so the promote
		// push (if any) is delivered reliably to whichever sharer it
		// names.
		nw.pushNotifications(ap, true)
	} else {
		// Unknown ID: the release may target any AP's stale entry, so
		// hand it to every controller (a release of an unknown node is a
		// stale no-op at the others).
		raw, _ := mac.Marshal(mac.ReleaseMsg{NodeID: id})
		for _, ap := range nw.APs {
			ap.Controller.HandleAtAppend(nil, raw, ap.Controller.NowS()) //nolint:errcheck
			nw.pushNotifications(ap, true)
		}
	}
}

// applyPromotion installs a PromoteMsg pushed by AP ap after a release:
// the named SDM sharer becomes the exclusive owner of (part of) the
// channel it shared. A node that roamed away since the push was queued
// ignores it — its spectrum now lives at another AP. It reports whether
// a live node actually adopted the promotion.
func (nw *Network) applyPromotion(ap *AccessPoint, reply []byte) bool {
	if len(reply) == 0 {
		return false
	}
	msg, err := mac.Unmarshal(reply)
	if err != nil {
		return false
	}
	p, ok := msg.(mac.PromoteMsg)
	if !ok {
		return false
	}
	n := nw.nodeByID(p.NodeID)
	if n == nil || n.AP != ap {
		return false
	}
	n.ApplyPromote(p)
	nw.sparse.updateNode(nw, n, nw.applyAssignment(n))
	return true
}

// MoveNode repositions a live node (a camera carried across the room) and
// refreshes everything pose-dependent: the node's TMA harmonic slot and
// its edges in the interference engine — one gain table plus a
// rediscovery of the moved node's edges, nobody else's. Its links need
// nothing: every evaluation reads Pose. The association itself does not
// change here: a node carried toward another AP re-homes at the roaming
// policy's next check, not mid-motion. It reports whether the node
// exists. Safe during Run — membership does not change.
func (nw *Network) MoveNode(id uint32, pose channel.Pose) bool {
	n := nw.nodeByID(id)
	if n == nil {
		return false
	}
	n.Pose = pose
	n.nearest = nw.isNearest(n)
	n.aimAt(n.AP)
	nw.sparse.moveNode(nw, n)
	if rs := nw.run; rs != nil {
		rs.listRoamer(n) // a traffic callback's move may see no settle before the next check
	}
	return true
}

// ValidateSpectrum cross-checks the network's spectrum state against the
// MAC layer's books, per AP: every AP's books pass AuditBooks (allocator
// invariants, and the allocator books exactly its owner records' grants),
// every FDM owner's assignment matches its serving AP's record, every SDM
// sharer is registered with its serving AP's controller on the channel it
// actually occupies, and no two exclusive (non-SDM) channels at the same
// AP overlap (cross-AP overlap is legal — that is what frequency reuse
// and distance-bounded interference are for). It also asserts the roaming
// invariant: no live node holds leases at two APs at once, except for the
// tracked mid-roam strays whose release died on the side channel and
// whose lease TTL is reclaiming them. It returns nil when consistent — the
// property the churn and roam lifecycles preserve.
func (nw *Network) ValidateSpectrum() error {
	for _, ap := range nw.APs {
		if err := ap.Controller.AuditBooks(); err != nil {
			return fmt.Errorf("simnet: AP %d: %w", ap.idx, err)
		}
	}
	for _, n := range nw.Nodes {
		if n.Down {
			// A crashed node holds no books entry once its lease expires
			// and transmits nothing — it cannot violate the spectrum
			// invariants.
			continue
		}
		a, shared, ok := n.AP.Controller.Holding(n.ID)
		if n.Shared {
			if !ok || !shared {
				return fmt.Errorf("simnet: SDM node %d not registered with the controller", n.ID)
			}
			if a.CenterHz != n.Assignment.CenterHz {
				return fmt.Errorf("simnet: SDM node %d confirmed on %.0f Hz but occupies %.0f Hz",
					n.ID, a.CenterHz, n.Assignment.CenterHz)
			}
			continue
		}
		if !ok || shared {
			return fmt.Errorf("simnet: exclusive node %d holds no allocation", n.ID)
		}
		if a.CenterHz != n.Assignment.CenterHz || a.WidthHz != n.Assignment.WidthHz {
			return fmt.Errorf("simnet: node %d assignment drifted from its AP's record", n.ID)
		}
	}
	// Roaming invariant: walking each AP's leaseholders costs O(total
	// leases), not O(nodes × APs). A leaseholder served elsewhere is a
	// double association unless it is a known stray (mid-roam release
	// loss) — those ride the TTL by design — or has already departed.
	for _, ap := range nw.APs {
		for _, id := range ap.Controller.Leaseholders() {
			n := nw.nodeByID(id)
			if n == nil || n.AP == ap {
				continue
			}
			if nw.strays[id] == ap {
				continue
			}
			return fmt.Errorf("simnet: node %d double-associated: leases at AP %d while served by AP %d",
				id, ap.idx, n.AP.idx)
		}
	}
	perAP := make([][]*Node, len(nw.APs))
	for _, n := range nw.Nodes {
		k := n.AP.idx
		perAP[k] = append(perAP[k], n)
	}
	for _, nodes := range perAP {
		if err := nw.checkExclusiveOverlap(nodes); err != nil {
			return err
		}
	}
	return nil
}

// checkExclusiveOverlap verifies no two live exclusive (non-SDM) channels
// overlap. Sorting by Low() reduces the check to adjacent comparisons —
// if any pair overlapped, the pair adjacent in sorted order would too
// (the later channel starts before the earlier one ends) — so validation
// is O(n log n) instead of the O(n²) pairwise scan that made
// `mmx-sim -validate` unusable at 100k nodes.
func (nw *Network) checkExclusiveOverlap(nodes []*Node) error {
	excl := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		if n.Shared || n.Down {
			continue
		}
		excl = append(excl, n)
	}
	sort.Slice(excl, func(i, j int) bool {
		return excl[i].Assignment.Low() < excl[j].Assignment.Low()
	})
	for i := 1; i < len(excl); i++ {
		a, b := excl[i-1], excl[i]
		// Same 1 µHz tolerance as Allocator.Validate, so exactly
		// abutting channels don't trip on float rounding.
		if b.Assignment.Low() < a.Assignment.High()-1e-6 {
			return fmt.Errorf("simnet: exclusive channels of nodes %d and %d overlap", a.ID, b.ID)
		}
	}
	return nil
}

// Report is one node's instantaneous link quality within the network.
type Report struct {
	ID uint32
	// SNRdB is the node's isolated OTAM link SNR (no interference).
	SNRdB float64
	// SINRdB folds in interference from every other node.
	SINRdB float64
	// BER is Evaluation.BERWithOTAM at the SINR: the OOK error rate
	// table read at the SINR in the full channel width.
	BER float64
	// PathClass is "los", "nlos", or "blocked".
	PathClass string
	// SDM reports that this node shares spectrum via the TMA.
	SDM bool
}

// freqCoupling classifies the FDM relationship between two channels.
// ok is false when the channels overlap (co-channel); otherwise the
// returned pair is the adjacent- or far-channel leakage, in dB and as a
// linear power factor, decided by the actual edge-to-edge distance: a
// neighbour closer than the narrower channel's width leaks at
// aclrAdjacentDB, anything farther at aclrFarDB.
// (Comparing center separation against channel-width sums, as earlier
// revisions did, misclassifies unequal-width neighbours.)
func (nw *Network) freqCoupling(i, j *Node) (db, lin float64, ok bool) {
	sep := math.Abs(i.Assignment.CenterHz - j.Assignment.CenterHz)
	halfWidths := (i.Assignment.WidthHz + j.Assignment.WidthHz) / 2
	if sep < halfWidths {
		return 0, 0, false
	}
	edgeGap := sep - halfWidths
	if edgeGap < math.Min(i.Assignment.WidthHz, j.Assignment.WidthHz) {
		return aclrAdjacentDB, aclrAdjacent, true
	}
	return aclrFarDB, aclrFar, true
}

// tmaSuppressionDB converts a transmitter's own-harmonic and leaked
// amplitudes into the [0,150] dB suppression figure.
func tmaSuppressionDB(own, leak float64) float64 {
	if own <= 0 {
		return 0
	}
	if leak <= 0 {
		return 150
	}
	supp := 20 * math.Log10(own/leak)
	if supp < 0 {
		supp = 0
	}
	if supp > 150 {
		supp = 150
	}
	return supp
}

// crossPower evaluates node n's peak received power at the AP at index a
// — the interference it injects into that AP's receive domain.
func (nw *Network) crossPower(n *Node, a int) float64 {
	return peakPower(nw.evaluate(n, nw.APs[a]))
}

// peakPower is an evaluation's peak received power: the stronger beam's
// field gain, squared.
func peakPower(ev core.Evaluation) float64 {
	g := math.Max(cmplx.Abs(ev.G0), cmplx.Abs(ev.G1))
	return g * g
}

// EvaluateSINR computes every node's current SNR and SINR. The engine
// settles its dirty set — the link evaluations the last events or
// blocker moves can have changed, then the interference re-sums of their
// victims — fanned out across the worker pool (Workers), and serves
// every other node's cached report.
func (nw *Network) EvaluateSINR() []Report {
	nw.core().settle(nw)
	out := make([]Report, len(nw.Nodes))
	for i, n := range nw.Nodes {
		r := &n.sp.rep
		out[i] = Report{ID: n.ID, SNRdB: r.SNRdB, SINRdB: r.SINRdB, BER: r.BER, PathClass: r.PathClass, SDM: n.Shared}
	}
	return out
}

// MeanSINRdB averages the current per-node SINR — the y-axis of Fig. 13.
func (nw *Network) MeanSINRdB() float64 {
	reports := nw.EvaluateSINR()
	if len(reports) == 0 {
		return math.Inf(-1)
	}
	s := 0.0
	for _, r := range reports {
		s += r.SINRdB
	}
	return s / float64(len(reports))
}
