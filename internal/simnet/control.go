package simnet

import (
	"mmx/internal/faults"
	"mmx/internal/mac"
	"mmx/internal/netctl"
)

// defaultRetry times every simulated control exchange: 20 ms reply
// timeout, 8 attempts, 20 ms → 500 ms doubling backoff at ±25% jitter.
// Sleep stays nil: on virtual time the machine's elapsed accounting (a
// TimeoutS plus a backoff draw per failed attempt) is the time that passes.
var defaultRetry = netctl.Retrier{
	TimeoutS:    0.02,
	MaxAttempts: 8,
	Backoff:     faults.Backoff{BaseS: 0.02, MaxS: 0.5, Factor: 2, Jitter: 0.25},
}

// SetLeaseTTL sets the lease lifetime and keepalive period in seconds
// (default 1 s renewed every 0.3 s); 0 turns either off. Every AP's
// controller takes the TTL when Run starts.
func (nw *Network) SetLeaseTTL(ttlS, renewIntervalS float64) {
	nw.leaseTTLS, nw.renewIntervalS = ttlS, renewIntervalS
}

// exchangeAt is the simulator's netctl.Exchange for node n: the one
// attempt loop over the network's virtual-time carrier toward ap, on a
// clock that starts at time at and advances by what each exchange
// consumed, so a verb's follow-up request (the share confirm, the rejoin
// after a nack) is anchored where the previous one ended.
func (nw *Network) exchangeAt(n *Node, ap *AccessPoint, at float64) netctl.Exchange {
	return func(req []byte) (any, float64, error) {
		nw.air.nw, nw.air.ap, nw.air.at = nw, ap, at
		reply, took, err := netctl.Carry(nw.retry, nw.ctrlRNG, &nw.air, &n.Session, nil, req)
		at += took
		return reply, took, err
	}
}

// placement is the simulator's netctl.Placement for node n at ap. The
// reject carries a nominal host channel, but the AP knows every
// occupant's harmonic slot: place the newcomer on the channel whose
// occupants are farthest from its own slot — the one its angle of
// arrival maps onto — so the TMA can actually separate them.
func (nw *Network) placement(ap *AccessPoint, n *Node) netctl.Placement {
	return func(shareHz float64, _ int8) (float64, int8) {
		if c, ok := nw.core().bestHostChannel(nw, ap, n.SDMHarmonic, n.avec, n.ID); ok {
			shareHz = c
		}
		return shareHz, int8(n.SDMHarmonic)
	}
}

// join runs the netctl handshake for node n at its serving AP starting
// at virtual time at — the one entry every admission path (join, reboot,
// roam and roam fallback) takes; the rejoin after a renew nack reaches
// the same code from inside Renew. It returns the virtual time the
// handshake consumed.
func (nw *Network) join(n *Node, at float64) (float64, error) {
	ap := n.AP
	return n.Join(nw.exchangeAt(n, ap, at), nw.placement(ap, n))
}

// renew runs the netctl keepalive for node n at virtual time at. A resync
// or a rejoin moved the node's grant, and so can a lost rejoin (rejected
// into SDM, its share confirm dead: the node transmits on the placement
// anyway), so its link configuration and coupling are re-derived; a
// timeout leaves it transmitting on its last-known assignment (graceful
// degradation) until the next keepalive.
func (nw *Network) renew(n *Node, at float64) netctl.RenewOutcome {
	ap := n.AP
	before := n.Grant
	outcome, _, _ := n.Renew(nw.exchangeAt(n, ap, at), nw.placement(ap, n))
	if outcome == netctl.RenewResynced || outcome == netctl.RenewRejoined || n.Grant != before {
		nw.sparse.updateNode(nw, n, nw.applyAssignment(n))
	}
	return outcome
}

// release frees node n's spectrum at ap — the one release both leave
// paths take, in a Run and before one. A live node sends it through the
// retry machinery over the (possibly lossy) side channel from virtual
// time at; a release that dies entirely is reclaimed by lease expiry. A
// crashed node's radio sends nothing, so its books entry is released at
// the controller directly, where no loss on the channel can strand the
// lease until its TTL.
func (nw *Network) release(ap *AccessPoint, n *Node, at float64) {
	if n.Down {
		raw, _ := mac.Marshal(mac.ReleaseMsg{NodeID: n.ID})
		ap.Controller.HandleAtAppend(nil, raw, ap.Controller.NowS()) //nolint:errcheck // a well-formed release
		return
	}
	n.Release(nw.exchangeAt(n, ap, at)) //nolint:errcheck // a lost release rides the lease TTL
}

// airCarrier is the simulator's netctl.Carrier toward ap over the
// (possibly lossy) side channel, on virtual time from at. Send runs the
// whole attempt: the request through the side channel, every arriving
// copy to the controller at at+elapsed plus its delay (duplicates are
// what exercises its idempotency), each reply back through the channel.
// Recv then yields the reply copies in that iteration order — not in
// order of arrival; the golden runs were recorded so — with the round
// trip as the time taken, skipping copies past the timeout.
type airCarrier struct {
	nw *Network
	ap *AccessPoint
	at float64
	// replies[:n] are the attempt's reply copies, DelayS the round trip
	// — at most two request copies arrive, each drawing at most two —
	// and next is the first one Recv has not yielded.
	replies [4]faults.Delivery
	n, next int
}

func (c *airCarrier) Send(req []byte, elapsed float64) error {
	c.n, c.next = 0, 0
	requests := c.nw.Side.Transmit(req)
	if c.ap.down {
		return nil // the AP is rebooting: frames fall on deaf ears
	}
	for _, rd := range requests {
		reply, err := c.ap.Controller.HandleAtAppend(nil, rd.Frame, c.at+elapsed+rd.DelayS)
		if err != nil || reply == nil {
			continue // garbled on the air, or not a replyable message
		}
		for _, dd := range c.nw.Side.Transmit(reply) {
			c.replies[c.n] = faults.Delivery{Frame: dd.Frame, DelayS: rd.DelayS + dd.DelayS}
			c.n++
		}
	}
	return nil
}

func (c *airCarrier) Recv() ([]byte, float64, bool) {
	for c.next < c.n {
		d := c.replies[c.next]
		c.next++
		if d.DelayS <= c.nw.retry.TimeoutS {
			return d.Frame, d.DelayS, true
		}
	}
	return nil, 0, false
}

// pushNotifications delivers one AP controller's queued PromoteMsg pushes
// through the side channel. A push that the channel drops is simply
// lost — the promoted node keeps operating as a sharer until its next
// renew ack re-syncs it.
func (nw *Network) pushNotifications(ap *AccessPoint, reliable bool) (applied int) {
	for _, note := range ap.Controller.TakeNotifications() {
		if reliable {
			if nw.applyPromotion(ap, note) {
				applied++
			}
			continue
		}
		for _, d := range nw.Side.Transmit(note) {
			if len(d.Frame) == len(note) && nw.applyPromotion(ap, d.Frame) {
				applied++
				break
			}
		}
	}
	return applied
}
