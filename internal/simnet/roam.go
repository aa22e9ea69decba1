package simnet

import (
	"math"
	"math/cmplx"

	"mmx/internal/par"
	"mmx/internal/units"
)

// roamCand is one traced candidate of a roam check: the AP and the
// stronger of the node's two beam field gains toward it.
type roamCand struct {
	ap *AccessPoint
	g  float64
}

// roamSpan locates one member's candidates: roamLanes[lane][lo:hi].
type roamSpan struct {
	lane, lo, hi int32
}

// roamTick runs one roaming-policy evaluation over the membership in two
// phases. Phase 1 (roamScreen) screens every member and traces its
// admitted candidates on the worker pool; phase 2 decides and roams
// serially, in membership order. A roam never changes membership — the
// node stays in Nodes throughout — so the membership index is stable
// across both phases even as roamTo rewires associations.
//
// The split decides exactly what the one-pass serial check decided.
// Phase 1 reads only the node's own pose, serving AP, report and hold
// time, plus the AP registry. During the pass reports change only at
// the closing settle, and n.AP and roamHoldUntil change only for the
// node that roams — which phase 1 has already screened. What an earlier
// roam can still change for a later member is its noise floor: the
// roamer's release may promote a sharer (applyPromotion →
// applyAssignment), re-widthing it. So phase 2 reads the noise floor at
// decision time, not phase 1.
func (rs *runState) roamTick() {
	nw := rs.nw
	dwell := nw.roam.dwellS
	if dwell == 0 {
		dwell = 0.5
	}
	members := len(nw.Nodes)
	if cap(rs.roamSpans) < members {
		rs.roamSpans = make([]roamSpan, members)
	}
	rs.roamSpans = rs.roamSpans[:members]
	if lanes := par.Lanes(nw.Workers, members); len(rs.roamLanes) < lanes {
		rs.roamLanes = append(rs.roamLanes, make([][]roamCand, lanes-len(rs.roamLanes))...)
	}
	for l := range rs.roamLanes {
		rs.roamLanes[l] = rs.roamLanes[l][:0]
	}
	if rs.roamFn == nil {
		rs.roamFn = func(lane, i int) { rs.roamScreen(lane, i) }
	}
	par.For(nw.Workers, members, rs.roamFn)

	now := rs.sim.Now()
	changed := false
	for i, n := range nw.Nodes {
		sp := rs.roamSpans[i]
		if sp.lo == sp.hi {
			continue
		}
		noise := nw.linkCfg(n).NoisePowerW() // now, after earlier roams' promotions
		if noise <= 0 {
			continue
		}
		// Hysteresis on SNR estimates: the best candidate must beat the
		// serving link's measured SNR by HysteresisDB. The candidate
		// estimate uses the serving link's noise bandwidth: same demand,
		// same channel width either way, so the comparison is
		// apples-to-apples.
		var best *AccessPoint
		bestSNR := n.sp.rep.SNRdB + nw.roam.HysteresisDB
		for _, c := range rs.roamLanes[sp.lane][sp.lo:sp.hi] {
			if snr := units.DB(c.g * c.g / noise); snr > bestSNR {
				best, bestSNR = c.ap, snr
			}
		}
		if best != nil {
			n.roamHoldUntil = now + dwell
			rs.roamTo(n, best)
			changed = true
		}
	}
	if changed {
		nw.core().settle(nw)
	}
}

// roamScreen is phase 1 of a roam check for member i, on lane: unless
// the node is down or holding, it traces every candidate AP the
// geometric screen admits, in AP order, into the lane's buffer. While
// the serving path is line-of-sight, only strictly-closer APs can
// plausibly clear the margin (the antennas are identical, so a farther
// AP starts ≥ 0 dB of free-space behind) — and since nodes associate to
// the nearest AP at join, a steady network traces zero candidates per
// check. Once the serving path degrades (nlos/blocked), the screen
// widens to every AP within 4× the serving distance — escaping a
// blocked link is exactly what roaming is for.
func (rs *runState) roamScreen(lane, i int) {
	nw := rs.nw
	n := nw.Nodes[i]
	buf := rs.roamLanes[lane]
	lo := len(buf)
	if !n.Down && rs.sim.Now() >= n.roamHoldUntil {
		cur := n.AP
		dCur := n.Pose.Pos.Dist(cur.Pose.Pos)
		limit := dCur
		if n.sp.rep.PathClass != "los" {
			limit = 4 * dCur
		}
		for _, ap := range nw.APs {
			if ap == cur || ap.down {
				continue
			}
			if d := n.Pose.Pos.Dist(ap.Pose.Pos); d >= limit {
				continue
			}
			ev := nw.evaluate(n, ap)
			buf = append(buf, roamCand{ap, math.Max(cmplx.Abs(ev.G0), cmplx.Abs(ev.G1))})
		}
	}
	rs.roamLanes[lane] = buf
	rs.roamSpans[i] = roamSpan{int32(lane), int32(lo), int32(len(buf))}
}

// rehome points n's radio at ap and re-derives the TMA harmonic for the
// new angle of arrival. Spectrum state is untouched — callers run the
// handshake next.
func (n *Node) rehome(ap *AccessPoint) {
	n.AP = ap
	n.aimAt(ap)
}

// roamTo migrates n from its serving AP to target: release at the old AP
// through the retry machine, then the full lossy handshake at the new
// one. A release that dies on the side channel leaves a stray lease the
// old AP's TTL reclaims — tracked in nw.strays so ValidateSpectrum can
// tell graceful degradation from double booking. Handshake failure falls
// back to re-joining the old AP; if that also dies, the node keeps
// transmitting on its last-known assignment and heals through the renew
// cycle (nack → rejoin), exactly like a node that outlived an AP
// restart.
func (rs *runState) roamTo(n *Node, to *AccessPoint) {
	nw := rs.nw
	from := n.AP
	// The release voids the grant, but the radio stays tuned to it until
	// a join lands a new one — what the node transmits on if every
	// handshake below dies.
	last := n.Grant
	if _, err := n.Release(nw.exchangeAt(n, from, rs.nowAt(from))); err != nil {
		nw.strays[n.ID] = from
	}
	n.Grant = last
	rs.ctl.Promotions += nw.pushNotifications(from, false)
	nw.sparse.detach(n)
	n.rehome(to)
	if _, err := nw.join(n, rs.nowAt(to)); err != nil {
		// The new AP never admitted the node: fall back to the one it
		// came from. If the release above was lost its old lease may
		// even still be live, and the books idempotently re-grant.
		rs.roamsFailed++
		n.rehome(from)
		if _, err := nw.join(n, rs.nowAt(from)); err == nil {
			delete(nw.strays, n.ID) // re-admitted: the old entry is current again
		}
		nw.sparse.addNode(nw, n, nw.applyAssignment(n))
		return
	}
	nw.sparse.addNode(nw, n, nw.applyAssignment(n))
	rs.apStats[from.idx].RoamsOut++
	rs.apStats[to.idx].RoamsIn++
	now := rs.sim.Now()
	rs.apClose(n.ID, now)
	rs.apOpen(n.ID, to.idx, now)
	if nw.OnMembership != nil {
		nw.OnMembership("roam", n.ID)
	}
}
