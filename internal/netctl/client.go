package netctl

import (
	"time"

	"mmx/internal/faults"
	"mmx/internal/mac"
	"mmx/internal/stats"
)

// Client is the node-side control-plane endpoint over a real transport:
// a Session — the protocol state and verbs the simulator also runs —
// and the Carrier that moves its requests over a Transport on real time.
// It hands the verbs no Placement: a real node has no network-layer view
// of the other sharers' angles, so on an SDM reject it confirms the AP's
// nominal host channel — the AP's books and the node agree either way,
// which is all the protocol requires.
//
// Build one with NewClient, which binds the exchange. A Client is not
// safe for concurrent use; the load generator runs one goroutine per
// client.
type Client struct {
	Session
	// Tally counts the sheds and promotes the client's exchanges met.
	Tally
	T Transport
	// Retry paces the per-exchange attempts; NewClient installs
	// DefaultRetrier.
	Retry Retrier

	rng *stats.RNG
	// start is when the current attempt's request went out.
	start time.Time
	// exch is the exchange method bound once at NewClient, so the verbs
	// allocate no method value per op.
	exch Exchange
}

// DefaultRetrier is the socket-side timing: 100 ms reply timeout, 8
// attempts with 50 ms → 2 s doubling backoff at ±25% jitter, sleeping
// real time between attempts.
func DefaultRetrier() Retrier {
	return Retrier{
		TimeoutS:    0.1,
		MaxAttempts: 8,
		Backoff:     faults.Backoff{BaseS: 0.05, MaxS: 2, Factor: 2, Jitter: 0.25},
		Sleep:       func(s float64) { time.Sleep(secondsToDuration(s)) },
	}
}

// NewClient builds a client for one node over t. seed feeds the backoff
// jitter, so a fleet of clients desynchronizes deterministically.
func NewClient(nodeID uint32, demandBps float64, t Transport, seed uint64) *Client {
	c := &Client{
		Session: Session{ID: nodeID, Demand: demandBps},
		T:       t,
		Retry:   DefaultRetrier(),
		rng:     stats.NewRNG(seed ^ uint64(nodeID)*0x9E3779B97F4A7C15),
	}
	c.exch = c.exchange
	return c
}

// IsShedReply reports whether a RejectMsg is the daemon's overload shed
// sentinel rather than a real SDM fallback: a genuine reject always
// names a host channel (centers sit in the GHz range), so ShareHz==0
// with Harmonic==0 is out-of-band. A shed client backs off and retries
// instead of wrongly entering SDM mode.
func IsShedReply(m mac.RejectMsg) bool { return m.ShareHz == 0 && m.Harmonic == 0 }

// ShedReply builds the overload sentinel the daemon sends when its
// ingress queue is full — an explicit "try later" instead of a silent
// drop, so a shed client stops burning its timeout budget immediately.
func ShedReply(node, seq uint32) mac.RejectMsg {
	return mac.RejectMsg{NodeID: node, Seq: seq}
}

// exchange is the Client's Exchange: the one attempt loop over the
// client as carrier.
func (c *Client) exchange(req []byte) (any, float64, error) {
	return Carry(c.Retry, c.rng, c, &c.Session, &c.Tally, req)
}

// Send starts an attempt on the real clock: the request goes out on the
// transport. The elapsed time needs no anchoring here — the wall clock
// has already moved by it.
func (c *Client) Send(req []byte, _ float64) error {
	c.start = time.Now()
	return c.T.Send(req)
}

// Recv waits for the transport's next frame until the attempt's
// TimeoutS, counted from its Send, runs out, and returns it with the
// real time since the Send.
func (c *Client) Recv() ([]byte, float64, bool) {
	remain := c.Retry.TimeoutS - time.Since(c.start).Seconds()
	if remain <= 0 {
		return nil, 0, false
	}
	frame, ok := c.T.Recv(remain)
	return frame, time.Since(c.start).Seconds(), ok
}

// Join runs the Session's handshake over the transport and returns the
// real time it took.
func (c *Client) Join() (float64, error) { return c.Session.Join(c.exch, nil) }

// Renew runs one lease keepalive over the transport and returns the
// outcome and the real time the exchange took (including a rejoin
// handshake if one ran).
func (c *Client) Renew() (RenewOutcome, float64, error) { return c.Session.Renew(c.exch, nil) }

// Release returns the node's spectrum over the transport.
func (c *Client) Release() (float64, error) { return c.Session.Release(c.exch) }

// Close releases the client's transport endpoint.
func (c *Client) Close() error { return c.T.Close() }
