package simnet

import (
	"math"
	"math/cmplx"

	"mmx/internal/units"
)

// roamTick runs one roaming-policy evaluation over the membership, in
// membership order. A roam never changes membership — the node stays in
// Nodes throughout — so iterating the live slice is stable even as
// roamTo rewires associations mid-pass.
func (rs *runState) roamTick() {
	nw := rs.nw
	dwell := nw.Roam.MinDwellS
	if dwell <= 0 {
		dwell = 0.5
	}
	now := rs.sim.Now()
	changed := false
	for _, n := range nw.Nodes {
		if n.Down || now < n.roamHoldUntil {
			continue
		}
		if to := rs.roamCandidate(n); to != nil {
			n.roamHoldUntil = now + dwell
			rs.roamTo(n, to)
			changed = true
		}
	}
	if changed {
		nw.core().settle(nw)
	}
}

// roamCandidate returns the AP the policy would move n to, or nil. The
// rule is hysteresis on SNR estimates: the best candidate must beat the
// serving link's measured SNR by HysteresisDB. Candidates are screened
// by geometry before paying a ray trace: while the serving path is
// line-of-sight, only strictly-closer APs can plausibly clear the
// margin (the antennas are identical, so a farther AP starts ≥ 0 dB of
// free-space behind) — and since nodes associate to the nearest AP at
// join, a steady network evaluates zero candidates per tick. Once the
// serving path degrades (nlos/blocked), the screen widens to every AP
// within 4× the serving distance — escaping a blocked link is exactly
// what roaming is for.
func (rs *runState) roamCandidate(n *Node) *AccessPoint {
	nw := rs.nw
	cur := n.AP
	noise := nw.linkCfg(n).NoisePowerW()
	if noise <= 0 {
		return nil
	}
	rep := &n.sp.rep
	dCur := n.Pose.Pos.Dist(cur.Pose.Pos)
	limit := dCur
	if rep.PathClass != "los" {
		limit = 4 * dCur
	}
	var best *AccessPoint
	bestSNR := rep.SNRdB + nw.Roam.HysteresisDB
	for _, ap := range nw.APs {
		if ap == cur || ap.down {
			continue
		}
		if d := n.Pose.Pos.Dist(ap.Pose.Pos); d >= limit {
			continue
		}
		ev := nw.evaluate(n, ap)
		g := math.Max(cmplx.Abs(ev.G0), cmplx.Abs(ev.G1))
		// The candidate SNR estimate uses the serving link's noise
		// bandwidth: same demand, same channel width either way, so the
		// comparison is apples-to-apples.
		if snr := units.DB(g * g / noise); snr > bestSNR {
			best, bestSNR = ap, snr
		}
	}
	return best
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
		nw.applyAssignment(n)
		nw.sparse.addNode(nw, n)
		return
	}
	nw.applyAssignment(n)
	nw.sparse.addNode(nw, n)
	rs.roams++
	rs.apStats[from.idx].RoamsOut++
	rs.apStats[to.idx].RoamsIn++
	now := rs.sim.Now()
	rs.apClose(n.ID, now)
	rs.apOpen(n.ID, to.idx, now)
	if nw.OnMembership != nil {
		nw.OnMembership("roam", n.ID)
	}
}
