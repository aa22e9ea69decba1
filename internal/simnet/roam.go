package simnet

import (
	"cmp"
	"slices"

	"mmx/internal/par"
	"mmx/internal/units"
)

// roamCand is one candidate of a roam check: the AP, the node's peak
// received power there (peakPower's product), and whether the screen
// traced it or read the power the node caches for that AP.
type roamCand struct {
	ap     *AccessPoint
	p      float64
	traced bool
}

// roamSpan locates one listed member's candidates:
// roamLanes[lane].cand[lo:hi].
type roamSpan struct {
	lane, lo, hi int32
}

// roamLane is one worker lane's share of a roam check's screen: the
// candidates of the members it screened, and its counts, which the check
// adds to the network's totals.
type roamLane struct {
	cand []roamCand
	work WorkStats
}

// roamTick runs one roaming-policy evaluation in two phases over the run's
// roam list: the members that can have a candidate at all (mayRoam).
// Every other member is nearest to its serving AP with a line-of-sight
// serving path, which no AP can beat. Phase 1 (roamScreen) screens every
// listed member and finds its candidates on the worker pool; phase 2
// caches the traced powers, then decides and roams serially, in
// membership order. A roam never changes membership — the node stays in
// Nodes throughout — so the list's order is stable across both phases
// even as roamTo rewires associations.
//
// The list holds every member that can roam: Run fills it at its start,
// and a member becomes able to roam only where its report's path class
// (finishDirty, the one writer), its pose (MoveNode) or its serving AP
// (rehome) changes, each of which lists it. A check drops departed and
// unable members and sorts the rest by membership index.
//
// The split decides exactly what the one-pass serial check decided.
// Phase 1 reads only the node's own pose, serving AP, report, hold time
// and cached powers, plus the AP registry. During the pass reports change
// only at the closing settle, and n.AP and roamHoldUntil change only for
// the node that roams — which phase 1 has already screened. What an
// earlier roam can still change for a later member is its noise floor:
// the roamer's release may promote a sharer (applyPromotion →
// applyAssignment), re-widthing it. So phase 2 reads the noise floor at
// decision time, not phase 1.
func (rs *runState) roamTick() {
	nw := rs.nw
	s := nw.core()
	dwell := nw.roam.dwellS
	if dwell == 0 {
		dwell = 0.5
	}
	list := rs.roamList[:0]
	for _, n := range rs.roamList {
		if nw.nodeIdx[n.ID] == n && n.mayRoam() {
			list = append(list, n)
		} else {
			n.roamListed = false
		}
	}
	slices.SortFunc(list, func(a, b *Node) int { return cmp.Compare(a.idx, b.idx) })
	rs.roamList = list
	if cap(rs.roamSpans) < len(list) {
		rs.roamSpans = make([]roamSpan, len(list))
	}
	rs.roamSpans = rs.roamSpans[:len(list)]
	if lanes := par.Lanes(nw.Workers, len(list)); len(rs.roamLanes) < lanes {
		rs.roamLanes = append(rs.roamLanes, make([]roamLane, lanes-len(rs.roamLanes))...)
	}
	for l := range rs.roamLanes {
		rs.roamLanes[l].cand = rs.roamLanes[l].cand[:0]
	}
	if rs.roamFn == nil {
		rs.roamFn = func(lane, i int) { rs.roamScreen(lane, i) }
	}
	par.For(nw.Workers, len(list), rs.roamFn)
	for l := range rs.roamLanes {
		nw.work.add(rs.roamLanes[l].work)
		rs.roamLanes[l].work = WorkStats{}
	}
	if nw.roamCheck != nil {
		nw.roamCheck()
	}

	// Every traced power becomes a cached link before anything moves: a
	// roam, a promotion or a callback's MoveNode below then drops it with
	// the node's edges.
	for i, n := range list {
		sp := rs.roamSpans[i]
		for _, c := range rs.roamLanes[sp.lane].cand[sp.lo:sp.hi] {
			if c.traced {
				s.watch(n, c.ap.idx, c.p)
			}
		}
	}
	now := rs.sim.Now()
	changed := false
	for i, n := range list {
		sp := rs.roamSpans[i]
		if sp.lo == sp.hi || nw.nodeIdx[n.ID] != n { // no candidate, or left in an earlier roam's callback
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
		for _, c := range rs.roamLanes[sp.lane].cand[sp.lo:sp.hi] {
			if snr := units.DB(c.p / noise); snr > bestSNR {
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
		s.settle(nw)
	}
}

// roamScreen is phase 1 of a roam check for listed member i, on lane:
// unless the node is down or holding, it finds every candidate AP the
// geometric screen admits, in AP order, into the lane's buffer. While the
// serving path is line-of-sight, only strictly-closer APs can plausibly
// clear the margin (the antennas are identical, so a farther AP starts
// ≥ 0 dB of free-space behind). Once the serving path degrades
// (nlos/blocked), the screen widens to every AP within 4× the serving
// distance — escaping a blocked link is exactly what roaming is for. A
// candidate's power is read from the node's live cross entry while the
// node is settled at the environment's current epoch, and traced
// otherwise.
func (rs *runState) roamScreen(lane, i int) {
	nw := rs.nw
	n := rs.roamList[i]
	ln := &rs.roamLanes[lane]
	lo := len(ln.cand)
	ln.work.RoamScreens++
	if !n.Down && rs.sim.Now() >= n.roamHoldUntil {
		cur := n.AP
		dCur := n.Pose.Pos.Dist(cur.Pose.Pos)
		limit := dCur
		if n.sp.rep.PathClass != "los" {
			limit = 4 * dCur
		}
		cached := !n.sp.evalStale && nw.sparse.envEpoch == nw.Env.Epoch()
		for _, ap := range nw.APs {
			if ap == cur || ap.down {
				continue
			}
			if d := n.Pose.Pos.Dist(ap.Pose.Pos); d >= limit {
				continue
			}
			if cached && n.sp.cross != nil && n.sp.cross[ap.idx].live() {
				ln.cand = append(ln.cand, roamCand{ap: ap, p: n.sp.cross[ap.idx].power})
				continue
			}
			ln.work.RoamTraces++
			ln.cand = append(ln.cand, roamCand{ap: ap, p: peakPower(nw.evaluate(n, ap)), traced: true})
		}
	}
	rs.roamSpans[i] = roamSpan{int32(lane), int32(lo), int32(len(ln.cand))}
}

// mayRoam reports whether a roam check can find n a candidate: a node
// nearest to its serving AP over a line-of-sight path has none.
func (n *Node) mayRoam() bool {
	return !n.nearest || n.sp.rep.PathClass != "los"
}

// isNearest reports whether no AP lies strictly closer to n than its
// serving AP, by the distances roamScreen compares.
func (nw *Network) isNearest(n *Node) bool {
	dCur := n.Pose.Pos.Dist(n.AP.Pose.Pos)
	for _, ap := range nw.APs {
		if ap != n.AP && n.Pose.Pos.Dist(ap.Pose.Pos) < dCur {
			return false
		}
	}
	return true
}

// listRoamer puts n on the roam list unless it is there or cannot roam.
// Runs without roaming keep no list.
func (rs *runState) listRoamer(n *Node) {
	if rs.roaming && !n.roamListed && n.mayRoam() {
		n.roamListed = true
		rs.roamList = append(rs.roamList, n)
	}
}

// rehome points n's radio at ap, re-derives the TMA harmonic for the new
// angle of arrival and whether n is nearest, and lists n if it can roam.
// Spectrum state is untouched — callers run the handshake next.
func (rs *runState) rehome(n *Node, ap *AccessPoint) {
	n.AP = ap
	n.nearest = rs.nw.isNearest(n)
	n.aimAt(ap)
	rs.listRoamer(n)
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
	rs.rehome(n, to)
	if _, err := nw.join(n, rs.nowAt(to)); err != nil {
		// The new AP never admitted the node: fall back to the one it
		// came from. If the release above was lost its old lease may
		// even still be live, and the books idempotently re-grant.
		rs.roamsFailed++
		rs.rehome(n, from)
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
