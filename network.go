package mmx

import (
	"mmx/internal/faults"
	"mmx/internal/simnet"
)

// Network is a complete mmX deployment: one access point serving many IoT
// nodes over the 24 GHz ISM band, with FDM channel allocation sized to
// each node's demand and TMA-based spatial reuse when the band fills up.
type Network struct {
	nw  *simnet.Network
	env *Environment
}

// NewNetwork creates a network in the environment with the AP at apPose.
func (e *Environment) NewNetwork(ap Pose, seed uint64) *Network {
	return &Network{nw: simnet.New(e.env, ap.internal(), seed), env: e}
}

// AddAP installs an additional access point at pose and returns its AP
// index. APs are build-time topology: add them before any node joins.
// Each node associates with exactly one AP (the nearest at join time, or
// wherever the roaming policy later moves it), and co-channel
// transmissions under different APs interfere — plan frequency reuse
// with PlanReuse when APs overlap.
func (n *Network) AddAP(pose Pose) (int, error) {
	ap, err := n.nw.AddAP(pose.internal())
	if err != nil {
		return -1, err
	}
	return ap.Index(), nil
}

// APCount reports the number of access points in the deployment.
func (n *Network) APCount() int { return len(n.nw.APs) }

// PlanReuse partitions the band into factor contiguous slices and
// assigns each AP a slice so that nearby APs land on different slices
// (greedy max-min-distance coloring). Factor 1 restores full-band reuse
// at every AP. Like AddAP, reuse planning is build-time: call it after
// the last AddAP and before the first Join.
func (n *Network) PlanReuse(factor int) error { return n.nw.PlanReuse(factor) }

// RoamPolicy configures hysteresis-based roaming between APs; see
// SetRoamingPolicy.
type RoamPolicy = simnet.RoamPolicy

// SetRoamingPolicy installs (or, with nil, removes) the roaming policy.
// With a policy set and more than one AP, every check interval each
// node compares candidate-AP SNR estimates against its serving link;
// a candidate beating it by HysteresisDB triggers a roam: release at
// the old AP, full lossy handshake at the new one. A release lost on
// the side channel leaves a stray lease that the old AP's TTL reclaims
// — graceful degradation, never double booking.
func (n *Network) SetRoamingPolicy(p *RoamPolicy) { n.nw.SetRoamingPolicy(p) }

// APStats is one AP's share of a run: membership events it admitted,
// roams in and out, and its end-of-run member count.
type APStats = simnet.APStats

// APInterval records one node's association with one AP over a time
// span; RunStats.APHistory strings them into per-node roaming
// histories.
type APInterval = simnet.APInterval

// Traffic describes a node's offered load.
type Traffic = simnet.TrafficModel

// ErrJoinFailed reports a node the AP could not admit — the handshake
// exhausted its retries, or the ID duplicates a live member. Test with
// errors.Is.
var ErrJoinFailed = simnet.ErrJoinFailed

// NoSampleSINRdB is the sentinel NodeStats.MinSINRdB / MeanSINRdB carry
// for a node with zero SINR samples (down or absent for its whole run).
var NoSampleSINRdB = simnet.NoSampleSINRdB

// CameraTraffic returns the paper's canonical workload: an HD video
// stream at the given application megabits per second (§1 footnote:
// "HD video streaming requires 8-10 Mbps").
func CameraTraffic(mbps float64) Traffic { return simnet.HDCamera(mbps) }

// TelemetryTraffic returns low-rate bursty sensor traffic with the given
// mean interval between reports.
func TelemetryTraffic(meanIntervalS float64) Traffic { return simnet.Telemetry(meanIntervalS) }

// NodeInfo describes an admitted node's spectrum situation.
type NodeInfo struct {
	ID uint32
	// ChannelHz and WidthHz locate the node's FDM channel.
	ChannelHz, WidthHz float64
	// SharedViaSDM reports that the node shares its channel spatially
	// (the TMA separates it from the channel's other occupants by
	// angle).
	SharedViaSDM bool
	// AP is the index of the access point serving the node (0 in a
	// single-AP deployment).
	AP int
}

// Join admits a node: the initialization handshake (§4) runs over the
// simulated control channel, spectrum is allocated (FDM first, SDM
// fallback), and the node's OTAM link is configured on its assignment.
// A duplicate node ID is rejected with ErrJoinFailed. Join is legal
// during Run (from a traffic callback or OnMembershipChange): the join
// becomes a membership event at the current sim clock, with the
// handshake's virtual time elapsing before the node goes on the air.
func (n *Network) Join(id uint32, pose Pose, demandBps float64, traffic Traffic) (NodeInfo, error) {
	node, err := n.nw.Join(id, pose.internal(), demandBps, traffic)
	if err != nil {
		return NodeInfo{}, err
	}
	info := NodeInfo{
		ID:           node.ID,
		ChannelHz:    node.Assignment.CenterHz,
		WidthHz:      node.Assignment.WidthHz,
		SharedViaSDM: node.Shared,
	}
	if node.AP != nil {
		info.AP = node.AP.Index()
	}
	return info, nil
}

// Leave removes a node and returns its spectrum to the pool, churn-safely:
// if the leaver owned a channel that SDM sharers still occupy, the best
// sharer is promoted to exclusive owner instead of the channel being
// re-granted over the sharers' heads. Like Join, Leave is legal during
// Run — it executes as a membership event at the current sim clock.
func (n *Network) Leave(id uint32) { n.nw.Leave(id) }

// ScheduleJoin plans a node admission at absolute sim time at (seconds
// from Run start). The join executes inside the next Run through the
// full (possibly lossy) control handshake; a handshake that exhausts
// its retries only increments RunStats.JoinsFailed. Together with
// ScheduleLeave this models live churn — devices arriving and departing
// while the network serves traffic — deterministically from the seed.
func (n *Network) ScheduleJoin(at float64, id uint32, pose Pose, demandBps float64, traffic Traffic) {
	n.nw.ScheduleJoin(at, id, pose.internal(), demandBps, traffic)
}

// ScheduleLeave plans a node departure at absolute sim time at. The
// departure executes inside the next Run through the release-retry
// machinery; a non-member ID at that time is a no-op.
func (n *Network) ScheduleLeave(at float64, id uint32) { n.nw.ScheduleLeave(at, id) }

// OnMembershipChange registers a callback invoked after every membership
// event applied inside Run — event is "join", "leave" or "roam" — with the
// network already in its post-event state. Tools use it to audit
// ValidateSpectrum after each event; it runs at the sim clock inside the
// event loop, so keep it cheap and deterministic. Pass nil to clear.
func (n *Network) OnMembershipChange(fn func(event string, id uint32)) {
	n.nw.OnMembership = fn
}

// MoveNode repositions a live node and refreshes its link geometry, TMA
// harmonic slot, and the network's cached interference state. It reports
// whether the node exists.
func (n *Network) MoveNode(id uint32, pose Pose) bool {
	return n.nw.MoveNode(id, pose.internal())
}

// ValidateSpectrum cross-checks the deployment's spectrum state against
// the MAC layer's books (allocator invariants, owner/sharer registration,
// no overlapping exclusive channels). It returns nil when consistent.
func (n *Network) ValidateSpectrum() error { return n.nw.ValidateSpectrum() }

// SetWorkers caps the SINR evaluation engine's parallel fan-out: 0 (the
// default) uses all cores, 1 forces the serial path. Parallel and serial
// evaluation produce bit-identical reports.
func (n *Network) SetWorkers(w int) { n.nw.Workers = w }

// CouplingMode selects when the network's interference engine — per-node
// neighbor lists over a grid partition — starts pruning pairs whose
// worst-case coupled power falls below the noise floor.
type CouplingMode = simnet.CouplingMode

const (
	// CouplingAuto (the default) stores every pair, which is exact, for
	// small memberships and starts pruning — one way — when the
	// membership first reaches the crossover size.
	CouplingAuto = simnet.CouplingAuto
	// CouplingSparse prunes from the first join. This is what makes
	// 100k-node memberships tractable.
	CouplingSparse = simnet.CouplingSparse
)

// SetCouplingMode selects when the interference engine starts pruning
// (see the CouplingMode constants). CouplingSparse takes effect at once,
// for the current membership.
func (n *Network) SetCouplingMode(m CouplingMode) { n.nw.SetCouplingMode(m) }

// NodeReport is one node's current link quality inside the network,
// including interference from every other node.
type NodeReport struct {
	ID uint32
	// SNRdB ignores interference; SINRdB includes it.
	SNRdB, SINRdB float64
	// BER is Evaluation.BERWithOTAM at the SINR: the OOK error rate
	// table read at the SINR in the full channel width.
	BER float64
	// PathClass is "los", "nlos" or "blocked".
	PathClass string
	// SharedViaSDM mirrors the node's spectrum situation.
	SharedViaSDM bool
}

// Reports evaluates every node's instantaneous SINR.
func (n *Network) Reports() []NodeReport {
	raw := n.nw.EvaluateSINR()
	out := make([]NodeReport, len(raw))
	for i, r := range raw {
		out[i] = NodeReport{
			ID: r.ID, SNRdB: r.SNRdB, SINRdB: r.SINRdB, BER: r.BER,
			PathClass: r.PathClass, SharedViaSDM: r.SDM,
		}
	}
	return out
}

// MeanSINRdB averages the current per-node SINR (Fig. 13's metric).
func (n *Network) MeanSINRdB() float64 { return n.nw.MeanSINRdB() }

// NodeStats mirrors simnet's per-node traffic outcome.
type NodeStats = simnet.NodeStats

// RunStats mirrors simnet's run summary.
type RunStats = simnet.RunStats

// ControlStats mirrors simnet's control-plane fault accounting.
type ControlStats = simnet.ControlStats

// FaultPlan is a deterministic schedule of in-run failures: node crashes
// and reboots, and AP restarts that wipe the volatile spectrum books.
// Build one with NewFaultPlan's chainable Crash / Reboot / RestartAPAt and
// install it with SetFaultPlan before Run.
type FaultPlan = faults.Plan

// NewFaultPlan returns an empty fault schedule.
func NewFaultPlan() *FaultPlan { return faults.NewPlan() }

// SetFaultPlan installs the in-run failure schedule executed by the next
// Run. Pass nil to clear it.
func (n *Network) SetFaultPlan(p *FaultPlan) { n.nw.Faults = p }

// SetLossyControl makes the WiFi/Bluetooth control side channel lossy:
// frames are dropped, duplicated and truncated at the given per-frame
// probabilities, deterministically from the seed. The join handshake and
// the lease keepalive cycle then run through the retry state machine
// (capped exponential backoff, idempotent AP handling). Zero rates with
// any seed model a reliable-but-instrumented channel.
func (n *Network) SetLossyControl(seed uint64, drop, dup, trunc float64) {
	n.nw.Side = faults.Lossy(seed, drop, dup, trunc)
}

// SetLeaseTTL sets the spectrum lease lifetime and keepalive period
// (seconds). A node silent for longer than ttlS — crashed without a
// Release — has its spectrum reclaimed churn-safely; live nodes renew
// every renewIntervalS, which should sit well below the TTL. ttlS = 0
// disables expiry. The default is 1 s leases renewed every 300 ms.
func (n *Network) SetLeaseTTL(ttlS, renewIntervalS float64) { n.nw.SetLeaseTTL(ttlS, renewIntervalS) }

// Run drives the deployment for the given duration (seconds): blockers
// walk, every node's traffic model emits frames, and frames succeed with
// probability (1−BER)^bits at the node's instantaneous SINR. envStep sets
// how often the environment (and the SINR snapshot) refreshes;
// outageSINRdB defines the outage threshold recorded in the stats.
// Membership may change mid-run (ScheduleJoin/ScheduleLeave, or
// Join/Leave from callbacks): per-node stats follow the node by ID, and
// time-normalized figures divide by each node's time-present
// (NodeStats.ActiveS). Run is not reentrant.
func (n *Network) Run(duration, envStep, outageSINRdB float64) RunStats {
	return n.nw.Run(duration, envStep, outageSINRdB)
}

// VideoTraffic returns a VBR camera workload: 30 fps GOP-structured
// frames (large I-frames, small P-frames) averaging the given Mbps.
func VideoTraffic(mbps float64) Traffic { return simnet.NewVBRCamera(mbps) }
