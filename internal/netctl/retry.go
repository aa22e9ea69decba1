// Package netctl owns the node side of the control protocol and carries
// the control plane onto real transports. Session is the protocol — a
// node's state and the Join / Renew / Release / ApplyPromote verbs, the
// only code that decides how a node reacts to an AP reply — written
// against an Exchange it is handed; Carry is the one attempt loop every
// exchange runs, deciding what a frame arriving during an attempt means,
// over a Carrier that moves the frames. Client is a Session plus the
// carrier over a Transport (real time); the simulator embeds a Session in
// each node and hands Carry a virtual-time carrier against the AP's
// controller. Server is the AP side: a mac.Controller served from a
// datagram socket. The wire codec lives in internal/mac, and nothing here
// knows whether frames cross a real socket or an in-memory fault-injected
// link.
package netctl

import (
	"errors"

	"mmx/internal/faults"
	"mmx/internal/mac"
	"mmx/internal/stats"
)

// Retrier is the transport-agnostic node-side retry state machine: one
// request/reply exchange is a sequence of attempts, each bounded by
// TimeoutS, paced by capped exponential backoff with seeded jitter, and
// abandoned after MaxAttempts. The simulator and the socket client run
// this exact implementation — the simulator on virtual time (Sleep nil,
// elapsed is pure accounting), the client on real time (Sleep blocks) —
// so the retry behavior validated under seeded fault injection is the
// behavior deployed against real packet loss.
type Retrier struct {
	// TimeoutS bounds one attempt's wait for a matching reply.
	TimeoutS float64
	// MaxAttempts bounds the attempts per exchange.
	MaxAttempts int
	// Backoff paces the retries (capped exponential + seeded jitter).
	Backoff faults.Backoff
	// Sleep, when non-nil, blocks for the given seconds between
	// attempts. Real-time transports install a time.Sleep adapter;
	// virtual-time callers leave it nil and account for elapsed time
	// themselves.
	Sleep func(seconds float64)
}

// ErrExhausted reports an exchange whose every attempt failed.
var ErrExhausted = errors.New("netctl: control exchange timed out after all retries")

// Do runs one exchange. attempt performs a single try — transmit the
// request, wait up to TimeoutS for a matching reply — and returns the
// decoded reply, the time the attempt consumed, and whether it
// succeeded. try is the zero-based attempt index; elapsedS is the time
// already spent in this exchange, so virtual-time attempts can anchor
// themselves on the exchange's timeline. After each failure the machine
// charges TimeoutS plus one jittered backoff draw from rng — exactly one
// draw per failed attempt, which is what keeps a simulated run
// bit-reproducible. When Sleep is installed, only the backoff draw is
// slept: a timed-out attempt already burned its TimeoutS on the wire,
// and an attempt that failed fast — a send error, or the daemon's
// explicit shed sentinel — should retreat for the backoff and retry,
// not wait out a timeout nothing is coming for.
func (r Retrier) Do(rng *stats.RNG, attempt func(try int, elapsedS float64) (reply any, tookS float64, ok bool)) (any, float64, error) {
	elapsed := 0.0
	for try := 0; try < r.MaxAttempts; try++ {
		reply, took, ok := attempt(try, elapsed)
		if ok {
			return reply, elapsed + took, nil
		}
		delay := r.Backoff.Delay(try, rng)
		if r.Sleep != nil && delay > 0 {
			r.Sleep(delay)
		}
		elapsed += r.TimeoutS + delay
	}
	return nil, elapsed, ErrExhausted
}

// Carrier moves the frames of one exchange's attempts. It owns time and
// order — when an attempt's timeout has run out, which arriving frame
// comes next, and how long after the send it arrived — so that Carry
// decides only what each frame means.
type Carrier interface {
	// Send starts an attempt elapsedS into its exchange by transmitting
	// req toward the AP.
	Send(req []byte, elapsedS float64) error
	// Recv returns the attempt's next arriving frame and the time from
	// the Send to its arrival; ok is false once nothing more arrives
	// within the attempt's timeout. The frame is valid until the next
	// Send or Recv.
	Recv() (frame []byte, tookS float64, ok bool)
}

// Tally counts the frames Carry consumed without returning them as a
// reply.
type Tally struct {
	// Sheds counts overload sentinels, Promotes unsolicited promotions
	// applied.
	Sheds, Promotes int
}

// Carry is the node side's one attempt loop: it runs the request frame
// req through r's attempts over c and returns the matched reply, the
// time the exchange consumed and ErrExhausted when every attempt failed.
// Every frame arriving during an attempt meets one acceptance rule:
//   - garbled: skipped;
//   - a PromoteMsg: applied to s when it names s, then skipped;
//   - a reply whose (node, seq) is not req's — stale or misaddressed:
//     skipped;
//   - the daemon's shed sentinel: the attempt fails at once, without
//     waiting out its timeout;
//   - anything else: the reply.
//
// t, when non-nil, counts the sheds and promotes.
func Carry(r Retrier, rng *stats.RNG, c Carrier, s *Session, t *Tally, req []byte) (any, float64, error) {
	_, node, seq, _ := mac.PeekHeader(req)
	return r.Do(rng, func(_ int, elapsed float64) (any, float64, bool) {
		if c.Send(req, elapsed) != nil {
			return nil, 0, false
		}
		for {
			frame, took, ok := c.Recv()
			if !ok {
				return nil, took, false
			}
			msg, err := mac.Unmarshal(frame)
			if err != nil {
				continue
			}
			if p, ok := msg.(mac.PromoteMsg); ok {
				if p.NodeID == s.ID {
					s.ApplyPromote(p)
					if t != nil {
						t.Promotes++
					}
				}
				continue
			}
			if rn, rs, ok := mac.ReplyIdent(msg); !ok || rn != node || rs != seq {
				continue
			}
			if rej, ok := msg.(mac.RejectMsg); ok && IsShedReply(rej) {
				if t != nil {
					t.Sheds++
				}
				return nil, took, false
			}
			return msg, took, true
		}
	})
}
