package simnet

import (
	"fmt"

	"mmx/internal/channel"
)

// churnEvent is one planned membership change: a join carries the full
// admission parameters, a leave only the ID.
type churnEvent struct {
	at      float64
	join    bool
	id      uint32
	pose    channel.Pose
	demand  float64
	traffic TrafficModel
}

// ScheduleJoin plans a node admission at absolute sim time at (seconds
// from Run start). The join executes inside Run through the full lossy
// handshake: the handshake's virtual time elapses on the event heap
// before the node goes on the air, and a handshake that exhausts its
// retries only increments RunStats.JoinsFailed. Called while Run is
// executing it schedules on the live event heap; called before Run it is
// queued and consumed by the next Run.
func (nw *Network) ScheduleJoin(at float64, id uint32, pose channel.Pose, demandBps float64, traffic TrafficModel) {
	nw.scheduleChurn(churnEvent{at: at, join: true, id: id, pose: pose, demand: demandBps, traffic: traffic})
}

// ScheduleLeave plans a node departure at absolute sim time at. The
// departure executes inside Run through the release-retry machinery;
// leaving an ID that is not a member at that time is a no-op.
func (nw *Network) ScheduleLeave(at float64, id uint32) {
	nw.scheduleChurn(churnEvent{at: at, id: id})
}

func (nw *Network) scheduleChurn(ce churnEvent) {
	if rs := nw.run; rs != nil {
		rs.schedule(ce)
		return
	}
	nw.pendingChurn = append(nw.pendingChurn, ce)
}

// schedule puts one churn event on the live event heap.
func (rs *runState) schedule(ce churnEvent) {
	rs.sim.At(ce.at, func() {
		if ce.join {
			rs.joinNow(ce.id, ce.pose, ce.demand, ce.traffic) //nolint:errcheck // failure is counted in JoinsFailed
		} else {
			rs.leaveNow(ce.id)
		}
	})
}

// joinNow admits a node at the current sim clock. The control handshake
// runs through the retry machinery anchored at the controller's timeline
// (ctrlNow); the virtual time it consumed then elapses on the event heap
// before the node is activated — appended to the membership, hooked into
// the interference engine, its presence interval opened and
// its traffic chain started. Between handshake and activation the ID is
// held pending so a racing duplicate join is rejected. A handshake
// failure increments JoinsFailed and returns a wrapped ErrJoinFailed;
// if Run's horizon ends before the activation delay elapses the node
// never becomes a member (its orphaned grant is reclaimed by lease
// expiry, exactly as a real half-joined device would be).
func (rs *runState) joinNow(id uint32, pose channel.Pose, demandBps float64, traffic TrafficModel) (*Node, error) {
	nw := rs.nw
	if nw.nodeByID(id) != nil || rs.pending[id] {
		rs.joinsFailed++
		return nil, fmt.Errorf("%w: duplicate node ID %d", ErrJoinFailed, id)
	}
	n := nw.newNode(id, pose, demandBps, traffic)
	ap := n.AP
	took, err := nw.join(n, rs.nowAt(ap))
	if err != nil {
		rs.joinsFailed++
		return nil, err
	}
	rs.pending[id] = true
	rs.sim.After(took, func() {
		delete(rs.pending, id)
		nw.registerNode(n, nw.applyAssignment(n))
		rs.apStats[ap.idx].Joins++
		rs.apOpen(id, ap.idx, rs.sim.Now())
		h := rs.left[id]
		if h == nil {
			h = rs.newHandle(new(nodeHandle), id)
		}
		h.joinedAt = rs.sim.Now()
		n.h = h
		nw.core().settle(nw)
		rs.scheduleFrames(n)
		if nw.OnMembership != nil {
			nw.OnMembership("join", id)
		}
	})
	return n, nil
}

// leaveNow removes a member at the current sim clock: the node drops out
// of the membership list and the interference engine, its spectrum is
// released (Network.release: over the side channel, or directly for a
// crashed node), and promote pushes
// for surviving sharers are delivered lossily — a lost push heals at the
// promoted node's next renew ack. The leaver's presence interval closes
// and its frame chain is generation-cancelled. Leaving a non-member is a
// no-op.
func (rs *runState) leaveNow(id uint32) {
	nw := rs.nw
	leaver := nw.nodeByID(id)
	if leaver == nil {
		return
	}
	ap := leaver.AP
	nw.unregisterNodeAt(leaver.idx)
	h := leaver.h
	leaver.h = nil
	rs.flushSamples(h)
	h.sampled = false
	rs.left[id] = h
	nw.release(ap, leaver, rs.nowAt(ap))
	delete(nw.strays, id)
	rs.ctl.Promotions += nw.pushNotifications(ap, false)
	rs.apStats[ap.idx].Leaves++
	now := rs.sim.Now()
	rs.apClose(id, now)
	h.st.ActiveS += now - h.joinedAt
	h.st.LeftAtS = now
	h.gen++ // cancels the departed node's in-flight frame chain
	nw.core().settle(nw)
	if nw.OnMembership != nil {
		nw.OnMembership("leave", id)
	}
}
