package netctl

import (
	"errors"
	"fmt"

	"mmx/internal/mac"
)

// Exchange carries one encoded request frame to the AP — retries, reply
// matching (against the (node, seq) in the frame's header) and fault
// handling included — and returns the matched reply, the time the
// exchange consumed, and an error when no reply ever arrived. It is the
// seam between the node-side protocol and what carries it: Client binds
// its socket exchange (real time), the simulator a virtual-time transact
// against the controller. Successive calls within one verb follow each
// other on the carrier's own timeline.
type Exchange func(req []byte) (reply any, tookS float64, err error)

// Placement settles where a node rejected into SDM lands: given the host
// channel and TMA harmonic the AP's reject nominates, it returns the pair
// the node confirms. nil confirms the nominal pair — all a real node can
// do without a network-layer view of the other sharers' angles; the
// simulator places the node on the channel whose occupants its TMA
// separates best.
type Placement func(nominalHz float64, nominal int8) (shareHz float64, harmonic int8)

// Grant is the spectrum a node operates on: the AP's FDM assignment, or
// its placement on a shared channel (Shared, with the TMA harmonic the
// AP's books hold for it).
type Grant struct {
	Assignment mac.Assignment
	Shared     bool
	Harmonic   int8
}

// Session is one node's control-protocol state and the verbs that move
// it. It is the only node-side implementation of the §7a handshake and
// the lease keepalive: every reaction to an AP reply lives here, and the
// socket client and the simulator differ only in the Exchange (and
// Placement) they hand in. Not safe for concurrent use.
type Session struct {
	ID uint32
	// seq numbers the node's requests so the AP can detect
	// retransmissions and the node can discard stale replies.
	seq    uint32
	Demand float64
	Grant
	// Joined is false before the first successful handshake, after a
	// Release, and after a nack whose rejoin died.
	Joined bool
}

// ErrJoinFailed reports a handshake whose every attempt died.
var ErrJoinFailed = errors.New("netctl: join failed")

// errUnexpectedReply tags a matched reply of a type the request cannot
// draw.
var errUnexpectedReply = errors.New("netctl: unexpected reply type")

func (s *Session) grant(centerHz, widthHz, fskOffsetHz float64, shared bool, harmonic int8) {
	s.Grant = Grant{
		Assignment: mac.Assignment{NodeID: s.ID, CenterHz: centerHz, WidthHz: widthHz, FSKOffsetHz: fskOffsetHz},
		Shared:     shared,
		Harmonic:   harmonic,
	}
}

// Join runs the full handshake: a JoinRequest, and — when rejected into
// SDM — a ShareConfirm reporting the settled placement back, so the AP's
// books track where the sharer really landed (that is what lets the
// controller promote, rather than re-grant, the channel when its FDM
// owner leaves). It returns the time the handshake took.
func (s *Session) Join(x Exchange, place Placement) (float64, error) {
	s.seq++
	reply, took, err := x(mac.JoinRequest{NodeID: s.ID, Seq: s.seq, DemandBps: s.Demand}.AppendTo(nil))
	if err != nil {
		return took, fmt.Errorf("%w: %v", ErrJoinFailed, err)
	}
	switch m := reply.(type) {
	case mac.AssignmentMsg:
		s.grant(m.CenterHz, m.WidthHz, m.FSKOffsetHz, false, 0)
	case mac.RejectMsg:
		shareHz, harmonic := m.ShareHz, m.Harmonic
		if place != nil {
			shareHz, harmonic = place(shareHz, harmonic)
		}
		width := mac.BandwidthForRate(s.Demand)
		s.grant(shareHz, width, width*mac.FSKFraction, true, harmonic)
		s.seq++
		reply, t2, err := x(mac.ShareConfirmMsg{
			NodeID: s.ID, Seq: s.seq, ShareHz: shareHz, WidthHz: width, Harmonic: harmonic,
		}.AppendTo(nil))
		took += t2
		if err != nil {
			// The AP never heard the confirm; operate on the placement
			// anyway and let the next renew heal the books (nack →
			// rejoin).
			return took, fmt.Errorf("%w: share confirm: %v", ErrJoinFailed, err)
		}
		if _, ok := reply.(mac.AckMsg); !ok {
			return took, fmt.Errorf("%w: share confirm answered by %T", ErrJoinFailed, reply)
		}
	default:
		return took, fmt.Errorf("%w: join answered by %T: %v", ErrJoinFailed, reply, errUnexpectedReply)
	}
	s.Joined = true
	return took, nil
}

// RenewOutcome tags what a keepalive cycle did.
type RenewOutcome uint8

// Keepalive outcomes.
const (
	// RenewOK: the lease is live and the books agree.
	RenewOK RenewOutcome = iota
	// RenewResynced: the lease is live but the AP's books differed (a
	// lost promote, or a post-restart reallocation); the node adopted
	// the AP's view.
	RenewResynced
	// RenewRejoined: the lease was gone (expired, or the AP restarted);
	// the node rejoined through the full handshake.
	RenewRejoined
	// RenewLost: the lease was gone and the rejoin also failed; the
	// node is off the books.
	RenewLost
	// RenewFailed: no reply at all; the node keeps transmitting on its
	// last-known grant until the next keepalive (graceful degradation).
	RenewFailed
)

// Renew runs one lease keepalive and returns the outcome and the time
// it took (including a rejoin handshake if one ran). The ack doubles as
// a state sync; a nack means the lease is gone and the node rejoins
// through Join with the same exchange and placement.
func (s *Session) Renew(x Exchange, place Placement) (RenewOutcome, float64, error) {
	s.seq++
	reply, took, err := x(mac.RenewMsg{NodeID: s.ID, Seq: s.seq}.AppendTo(nil))
	if err != nil {
		return RenewFailed, took, err
	}
	switch m := reply.(type) {
	case mac.RenewAckMsg:
		if m.Shared == s.Shared &&
			m.CenterHz == s.Assignment.CenterHz &&
			m.WidthHz == s.Assignment.WidthHz {
			return RenewOK, took, nil
		}
		s.grant(m.CenterHz, m.WidthHz, m.FSKOffsetHz, m.Shared, m.Harmonic)
		return RenewResynced, took, nil
	case mac.RenewNackMsg:
		s.Joined = false
		t2, err := s.Join(x, place)
		took += t2
		if err != nil {
			return RenewLost, took, err
		}
		return RenewRejoined, took, nil
	default:
		return RenewFailed, took, fmt.Errorf("renew answered by %T: %w", reply, errUnexpectedReply)
	}
}

// Release returns the node's spectrum and, once acked, clears its local
// books. The AP acks a release even for a node it no longer knows, so a
// release only fails when the AP is unreachable for the whole retry
// budget — the lease TTL then reclaims the spectrum on the AP's side.
func (s *Session) Release(x Exchange) (float64, error) {
	s.seq++
	reply, took, err := x(mac.ReleaseMsg{NodeID: s.ID, Seq: s.seq}.AppendTo(nil))
	if err != nil {
		return took, err
	}
	if _, ok := reply.(mac.AckMsg); !ok {
		return took, fmt.Errorf("release answered by %T: %w", reply, errUnexpectedReply)
	}
	s.Grant, s.Joined = Grant{}, false
	return took, nil
}

// ApplyPromote adopts an unsolicited promotion: the node now exclusively
// owns (part of) the channel it was sharing.
func (s *Session) ApplyPromote(p mac.PromoteMsg) {
	s.grant(p.CenterHz, p.WidthHz, p.FSKOffsetHz, false, 0)
}
