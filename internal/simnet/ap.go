package simnet

import (
	"fmt"
	"math"

	"mmx/internal/antenna"
	"mmx/internal/channel"
	"mmx/internal/mac"
	"mmx/internal/tma"
)

// AccessPoint is one AP of the deployment: its pose, antenna pattern,
// time-modulated array, and the mac.Controller that owns its (possibly
// reuse-partitioned) spectrum slice. A network always has at least one —
// the construction-time AP at index 0. Additional APs are installed with
// AddAP before any node joins; the registry is static for the life of
// the network (APs restart via faults.Plan, they never move or leave).
type AccessPoint struct {
	Pose channel.Pose
	// Pattern is the AP's receive antenna, the one every link toward it
	// evaluates through. Fixed once the first node joins, like APs.
	Pattern antenna.Pattern
	// Controller owns this AP's spectrum books. Each AP runs its own
	// controller over its own band slice — there is no shared state
	// between APs, which is exactly why a roaming node must release at
	// the old AP and re-handshake at the new one.
	Controller *mac.Controller
	// SDM is this AP's time-modulated array used when FDM runs out.
	SDM *tma.Array
	// Band is the spectrum slice this AP allocates from (the full
	// network band until PlanReuse partitions it).
	Band mac.Band
	// idx is the AP's stable index in Network.APs.
	idx int
	// down is true while a FaultPlan restart keeps this AP unreachable:
	// control frames addressed to it fall on deaf ears.
	down bool
}

// Index returns the AP's stable index in the network's registry — the
// value faults.Plan.RestartAPAt and RunStats.PerAP refer to.
func (ap *AccessPoint) Index() int { return ap.idx }

// AddAP installs an additional AP at pose. The registry is build-time
// topology: AddAP must run before any node joins (and before Run), so
// association, reuse planning and the sparse core's per-AP shards never
// see a half-built AP set.
func (nw *Network) AddAP(pose channel.Pose) (*AccessPoint, error) {
	if len(nw.Nodes) > 0 || nw.run != nil {
		return nil, fmt.Errorf("simnet: AddAP must run before nodes join")
	}
	ap := nw.installAP(pose)
	// The engine sizes its channel shards and power bound per AP set: the
	// next need rebuilds it for the grown registry.
	nw.sparse = nil
	return ap, nil
}

// installAP appends a fresh AP at pose, on the full network band, to the
// registry — the construction-time AP and every AddAP alike.
func (nw *Network) installAP(pose channel.Pose) *AccessPoint {
	ap := &AccessPoint{
		Pose:       pose,
		Pattern:    antenna.NewAPAntenna(),
		Controller: mac.NewController(nw.band),
		SDM:        tma.NewSDMArray(16, 1e6),
		Band:       nw.band,
		idx:        len(nw.APs),
	}
	nw.APs = append(nw.APs, ap)
	return ap
}

// selectAP associates a joining node with its nearest AP; ties break to
// the lower AP index so admission is deterministic.
func (nw *Network) selectAP(pos channel.Vec2) *AccessPoint {
	best := nw.APs[0]
	bd := pos.Dist(best.Pose.Pos)
	for _, ap := range nw.APs[1:] {
		if d := pos.Dist(ap.Pose.Pos); d < bd {
			best, bd = ap, d
		}
	}
	return best
}

// PlanReuse partitions the network band into factor contiguous slices
// and statically colors the AP registry with them, greedily maximizing
// the distance between same-slice neighbors (the classic reuse-distance
// heuristic): APs are colored in index order, each taking the color
// whose nearest already-colored same-color AP is farthest; ties break to
// the lowest color, so the plan is a pure function of the AP poses.
// Each AP's controller is rebuilt over its slice. factor == 1 leaves
// every AP on the full band (the fully-shared plan, where cross-AP
// co-channel interference is bounded by distance alone). Build-time
// only: planning after nodes joined would strand their grants.
func (nw *Network) PlanReuse(factor int) error {
	if len(nw.Nodes) > 0 || nw.run != nil {
		return fmt.Errorf("simnet: PlanReuse must run before nodes join")
	}
	if factor < 1 || factor > len(nw.APs) {
		return fmt.Errorf("simnet: reuse factor %d outside [1, %d APs]", factor, len(nw.APs))
	}
	if factor == 1 {
		return nil
	}
	slices := nw.band.Partition(factor)
	colors := nw.reuseColors(factor)
	for i, ap := range nw.APs {
		b := slices[colors[i]]
		ap.Controller, ap.Band = mac.NewController(b), b
	}
	return nil
}

// reuseColors assigns each AP one of k band-slice colors, in index
// order, maximizing the minimum distance to same-color predecessors.
func (nw *Network) reuseColors(k int) []int {
	colors := make([]int, len(nw.APs))
	for i, ap := range nw.APs {
		bestC, bestD := 0, math.Inf(-1)
		for c := 0; c < k; c++ {
			d := math.Inf(1) // unused color: no same-color neighbor at all
			for j := 0; j < i; j++ {
				if colors[j] != c {
					continue
				}
				if dj := ap.Pose.Pos.Dist(nw.APs[j].Pose.Pos); dj < d {
					d = dj
				}
			}
			if d > bestD {
				bestC, bestD = c, d
			}
		}
		colors[i] = bestC
	}
	return colors
}

// RoamPolicy makes association dynamic: each check interval, every live
// node compares SNR estimates toward candidate APs against its serving
// link and migrates when a candidate clears the hysteresis margin. The
// transition is release-at-old, handshake-at-new through the same lossy
// control machinery as churn — mid-roam loss degrades into a stray
// lease the old AP's TTL reclaims, never a double booking.
//
// A check screens every node's pose and report as they stood when the
// check began: the candidate traces of all nodes run first, on the
// worker pool, and the decisions and roams follow in membership order.
// An OnMembership callback that moves a node in the middle of a check is
// seen at the next check.
type RoamPolicy struct {
	// HysteresisDB is how much better (in dB) a candidate AP's SNR
	// estimate must be before the node roams to it.
	HysteresisDB float64
	// checkS is a test hook: the roam evaluation period. 0 (every
	// binary's value) uses 0.2 s.
	checkS float64
	// dwellS is a test hook: roam attempts are suppressed for this long
	// after one — hysteresis in time, so a node cannot ping-pong between
	// two APs on consecutive checks. 0 (every binary's value) uses 0.5 s.
	dwellS float64
}

// SetRoamingPolicy installs (or, with nil, removes) the roaming policy.
// The policy only matters with more than one AP; single-AP runs never
// schedule a roam check.
func (nw *Network) SetRoamingPolicy(p *RoamPolicy) { nw.roam = p }
