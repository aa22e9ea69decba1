package mac

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The initialization protocol (§4, §7a): before any mmWave transmission, a
// node asks the AP for spectrum over a low-rate side channel (WiFi or
// Bluetooth in the prototype) and receives its channel assignment. The
// side channel is lossy in any real deployment, so the protocol is built
// for retransmission: every request carries a node-scoped sequence
// number, the controller is idempotent (a duplicate request re-sends the
// original reply instead of corrupting state), and assignments are
// time-limited leases kept alive by periodic renews — a node that crashes
// without a Release loses its spectrum after one TTL instead of leaking
// it forever. The wire format is a fixed little-endian layout so the
// protocol can actually run over any byte transport.

// MsgType tags a control message.
type MsgType uint8

// Control message types.
const (
	MsgJoinRequest MsgType = iota + 1
	MsgAssignment
	MsgReject
	MsgRelease
	MsgShareConfirm
	MsgPromote
	MsgRenew
	MsgRenewAck
	MsgRenewNack
	MsgAck
)

// JoinRequest is a node asking for a channel sized to its demand.
type JoinRequest struct {
	NodeID    uint32
	Seq       uint32
	DemandBps float64
}

// AssignmentMsg carries the AP's grant back to the node. Seq echoes the
// request so the node can match replies to retransmitted requests.
type AssignmentMsg struct {
	NodeID      uint32
	Seq         uint32
	CenterHz    float64
	WidthHz     float64
	FSKOffsetHz float64
}

// ReleaseMsg returns a node's channel to the pool.
type ReleaseMsg struct {
	NodeID uint32
	Seq    uint32
}

// RejectMsg tells a node no FDM spectrum is left; Harmonic is the SDM
// harmonic slot it may share instead (negative values allowed), and
// ShareHz the channel it should share.
type RejectMsg struct {
	NodeID  uint32
	Seq     uint32
	ShareHz float64
	// Harmonic is encoded as a signed 8-bit value.
	Harmonic int8
}

// ShareConfirmMsg is a rejected node reporting back the co-channel it
// actually settled on: the AP's reject carries only a nominal host channel,
// and the network layer re-places the node via TMA suppression
// (bestHostChannel), so the AP must be told where the sharer really landed
// or its spectrum books go stale — the root cause of the churn re-grant
// bug. WidthHz is the sharer's occupied width; Harmonic its TMA slot.
type ShareConfirmMsg struct {
	NodeID  uint32
	Seq     uint32
	ShareHz float64
	WidthHz float64
	// Harmonic is encoded as a signed 8-bit value.
	Harmonic int8
}

// PromoteMsg tells a former SDM sharer it now exclusively owns (part of)
// the channel it was sharing: its previous host released the channel and
// the AP promoted the sharer rather than returning spectrum that is still
// spatially occupied to the free pool. It is unsolicited (an AP push, not
// a reply), so it carries no sequence number; a lost promote is repaired
// by the node's next renew, whose ack carries the same books.
type PromoteMsg struct {
	NodeID      uint32
	CenterHz    float64
	WidthHz     float64
	FSKOffsetHz float64
}

// RenewMsg is a node's periodic lease keepalive.
type RenewMsg struct {
	NodeID uint32
	Seq    uint32
}

// RenewAckMsg confirms a live lease and carries the AP's current books
// for the node — center, width, FSK offset and whether the node is an
// SDM sharer — so a node whose PromoteMsg (or any earlier reply) was
// lost re-synchronizes on its next keepalive.
type RenewAckMsg struct {
	NodeID      uint32
	Seq         uint32
	CenterHz    float64
	WidthHz     float64
	FSKOffsetHz float64
	Harmonic    int8
	Shared      bool
}

// RenewNackMsg tells a node the AP holds no lease for it — its lease
// expired or the AP restarted — and it must rejoin from scratch.
type RenewNackMsg struct {
	NodeID uint32
	Seq    uint32
}

// AckMsg is the generic positive reply to requests that change state but
// return no payload (Release, ShareConfirm): without it a lossy channel
// cannot distinguish "request lost" from "done".
type AckMsg struct {
	NodeID uint32
	Seq    uint32
}

// Codec errors. Unmarshal wraps these with per-message detail, so match
// with errors.Is, never ==.
var (
	ErrShortMessage = errors.New("mac: message truncated")
	ErrUnknownType  = errors.New("mac: unknown message type")
	ErrFrameTooLong = errors.New("mac: frame exceeds MaxFrameLen")
	ErrBadField     = errors.New("mac: field out of range")
)

// MaxFrameLen is the hard cap on an accepted control frame. The longest
// legal message (RenewAckMsg) is 35 bytes; anything bigger is
// adversarial or corrupt, and a network-facing server must be able to
// bound its per-frame work before parsing a byte.
const MaxFrameLen = 64

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func readF64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// appendHeader starts an encoding with the type tag, node ID and
// sequence number every sequenced message opens with.
func appendHeader(b []byte, t MsgType, node, seq uint32) []byte {
	b = append(b, byte(t))
	b = binary.LittleEndian.AppendUint32(b, node)
	return binary.LittleEndian.AppendUint32(b, seq)
}

// AppendTo appends the message's wire encoding to b and returns the
// extended slice. The append-style encoders are the allocation-free
// marshal path: a caller that reuses its destination buffer encodes in
// place, where Marshal must allocate a fresh slice per message.

// AppendTo appends the wire encoding of the join request to b.
func (m JoinRequest) AppendTo(b []byte) []byte {
	return appendF64(appendHeader(b, MsgJoinRequest, m.NodeID, m.Seq), m.DemandBps)
}

// AppendTo appends the wire encoding of the assignment to b.
func (m AssignmentMsg) AppendTo(b []byte) []byte {
	b = appendHeader(b, MsgAssignment, m.NodeID, m.Seq)
	b = appendF64(b, m.CenterHz)
	b = appendF64(b, m.WidthHz)
	return appendF64(b, m.FSKOffsetHz)
}

// AppendTo appends the wire encoding of the release to b.
func (m ReleaseMsg) AppendTo(b []byte) []byte {
	return appendHeader(b, MsgRelease, m.NodeID, m.Seq)
}

// AppendTo appends the wire encoding of the reject to b.
func (m RejectMsg) AppendTo(b []byte) []byte {
	b = appendHeader(b, MsgReject, m.NodeID, m.Seq)
	b = appendF64(b, m.ShareHz)
	return append(b, byte(m.Harmonic))
}

// AppendTo appends the wire encoding of the share confirm to b.
func (m ShareConfirmMsg) AppendTo(b []byte) []byte {
	b = appendHeader(b, MsgShareConfirm, m.NodeID, m.Seq)
	b = appendF64(b, m.ShareHz)
	b = appendF64(b, m.WidthHz)
	return append(b, byte(m.Harmonic))
}

// AppendTo appends the wire encoding of the promote push to b.
func (m PromoteMsg) AppendTo(b []byte) []byte {
	b = append(b, byte(MsgPromote))
	b = binary.LittleEndian.AppendUint32(b, m.NodeID)
	b = appendF64(b, m.CenterHz)
	b = appendF64(b, m.WidthHz)
	return appendF64(b, m.FSKOffsetHz)
}

// AppendTo appends the wire encoding of the renew keepalive to b.
func (m RenewMsg) AppendTo(b []byte) []byte {
	return appendHeader(b, MsgRenew, m.NodeID, m.Seq)
}

// AppendTo appends the wire encoding of the renew ack to b.
func (m RenewAckMsg) AppendTo(b []byte) []byte {
	b = appendHeader(b, MsgRenewAck, m.NodeID, m.Seq)
	b = appendF64(b, m.CenterHz)
	b = appendF64(b, m.WidthHz)
	b = appendF64(b, m.FSKOffsetHz)
	b = append(b, byte(m.Harmonic))
	shared := byte(0)
	if m.Shared {
		shared = 1
	}
	return append(b, shared)
}

// AppendTo appends the wire encoding of the renew nack to b.
func (m RenewNackMsg) AppendTo(b []byte) []byte {
	return appendHeader(b, MsgRenewNack, m.NodeID, m.Seq)
}

// AppendTo appends the wire encoding of the ack to b.
func (m AckMsg) AppendTo(b []byte) []byte {
	return appendHeader(b, MsgAck, m.NodeID, m.Seq)
}

// Marshal encodes any control message into a fresh slice. Callers that
// reuse buffers use the concrete message type's AppendTo method, which
// also skips the interface boxing this signature forces on the argument.
func Marshal(msg any) ([]byte, error) {
	switch m := msg.(type) {
	case JoinRequest:
		return m.AppendTo(nil), nil
	case AssignmentMsg:
		return m.AppendTo(nil), nil
	case ReleaseMsg:
		return m.AppendTo(nil), nil
	case RejectMsg:
		return m.AppendTo(nil), nil
	case ShareConfirmMsg:
		return m.AppendTo(nil), nil
	case PromoteMsg:
		return m.AppendTo(nil), nil
	case RenewMsg:
		return m.AppendTo(nil), nil
	case RenewAckMsg:
		return m.AppendTo(nil), nil
	case RenewNackMsg:
		return m.AppendTo(nil), nil
	case AckMsg:
		return m.AppendTo(nil), nil
	default:
		return nil, ErrUnknownType
	}
}

// shortErr reports a truncated frame of a known type.
func shortErr(b []byte, m MsgType, need int) error {
	return fmt.Errorf("%w: type %d needs %d bytes, got %d", ErrShortMessage, m, need, len(b))
}

func rawNode(b []byte) uint32 { return binary.LittleEndian.Uint32(b[1:]) }
func rawSeq(b []byte) uint32  { return binary.LittleEndian.Uint32(b[5:]) }

// The typed decoders below are the non-boxing half of the codec: they
// return concrete message structs on the caller's stack, so the server
// hot path (Controller.HandleAtAppend) decodes without the interface
// allocation Unmarshal's `any` return forces. Unmarshal dispatches to
// them, so both paths share one set of bounds checks.

func decodeJoinRequest(b []byte) (JoinRequest, error) {
	if len(b) < 1+8+8 {
		return JoinRequest{}, shortErr(b, MsgJoinRequest, 1+8+8)
	}
	return JoinRequest{NodeID: rawNode(b), Seq: rawSeq(b), DemandBps: readF64(b[9:])}, nil
}

func decodeAssignment(b []byte) (AssignmentMsg, error) {
	if len(b) < 1+8+24 {
		return AssignmentMsg{}, shortErr(b, MsgAssignment, 1+8+24)
	}
	return AssignmentMsg{
		NodeID:      rawNode(b),
		Seq:         rawSeq(b),
		CenterHz:    readF64(b[9:]),
		WidthHz:     readF64(b[17:]),
		FSKOffsetHz: readF64(b[25:]),
	}, nil
}

func decodeRelease(b []byte) (ReleaseMsg, error) {
	if len(b) < 1+8 {
		return ReleaseMsg{}, shortErr(b, MsgRelease, 1+8)
	}
	return ReleaseMsg{NodeID: rawNode(b), Seq: rawSeq(b)}, nil
}

func decodeReject(b []byte) (RejectMsg, error) {
	if len(b) < 1+8+8+1 {
		return RejectMsg{}, shortErr(b, MsgReject, 1+8+8+1)
	}
	return RejectMsg{
		NodeID:   rawNode(b),
		Seq:      rawSeq(b),
		ShareHz:  readF64(b[9:]),
		Harmonic: int8(b[17]),
	}, nil
}

func decodeShareConfirm(b []byte) (ShareConfirmMsg, error) {
	if len(b) < 1+8+16+1 {
		return ShareConfirmMsg{}, shortErr(b, MsgShareConfirm, 1+8+16+1)
	}
	return ShareConfirmMsg{
		NodeID:   rawNode(b),
		Seq:      rawSeq(b),
		ShareHz:  readF64(b[9:]),
		WidthHz:  readF64(b[17:]),
		Harmonic: int8(b[25]),
	}, nil
}

func decodePromote(b []byte) (PromoteMsg, error) {
	if len(b) < 1+4+24 {
		return PromoteMsg{}, shortErr(b, MsgPromote, 1+4+24)
	}
	return PromoteMsg{
		NodeID:      rawNode(b),
		CenterHz:    readF64(b[5:]),
		WidthHz:     readF64(b[13:]),
		FSKOffsetHz: readF64(b[21:]),
	}, nil
}

func decodeRenew(b []byte) (RenewMsg, error) {
	if len(b) < 1+8 {
		return RenewMsg{}, shortErr(b, MsgRenew, 1+8)
	}
	return RenewMsg{NodeID: rawNode(b), Seq: rawSeq(b)}, nil
}

func decodeRenewAck(b []byte) (RenewAckMsg, error) {
	if len(b) < 1+8+24+2 {
		return RenewAckMsg{}, shortErr(b, MsgRenewAck, 1+8+24+2)
	}
	return RenewAckMsg{
		NodeID:      rawNode(b),
		Seq:         rawSeq(b),
		CenterHz:    readF64(b[9:]),
		WidthHz:     readF64(b[17:]),
		FSKOffsetHz: readF64(b[25:]),
		Harmonic:    int8(b[33]),
		Shared:      b[34] != 0,
	}, nil
}

func decodeRenewNack(b []byte) (RenewNackMsg, error) {
	if len(b) < 1+8 {
		return RenewNackMsg{}, shortErr(b, MsgRenewNack, 1+8)
	}
	return RenewNackMsg{NodeID: rawNode(b), Seq: rawSeq(b)}, nil
}

func decodeAck(b []byte) (AckMsg, error) {
	if len(b) < 1+8 {
		return AckMsg{}, shortErr(b, MsgAck, 1+8)
	}
	return AckMsg{NodeID: rawNode(b), Seq: rawSeq(b)}, nil
}

// frameBounds applies the frame-level checks shared by Unmarshal and
// HandleAtAppend: non-empty, inside the MaxFrameLen cap.
func frameBounds(b []byte) error {
	if len(b) < 1 {
		return fmt.Errorf("%w: empty frame", ErrShortMessage)
	}
	if len(b) > MaxFrameLen {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLong, len(b))
	}
	return nil
}

// Unmarshal decodes a control message produced by Marshal. It is the
// trust boundary against raw network input: every fixed-layout field is
// bounds-checked before it is read, frames longer than MaxFrameLen are
// refused outright, and failures are wrapped sentinel errors
// (errors.Is-matchable), never panics. Truncated input of a known type
// returns ErrShortMessage; trailing bytes beyond a message's fixed
// length — but inside the frame cap — are ignored, matching how a
// datagram receiver treats padding.
func Unmarshal(b []byte) (any, error) {
	if err := frameBounds(b); err != nil {
		return nil, err
	}
	switch t := MsgType(b[0]); t {
	case MsgJoinRequest:
		return boxDecode(decodeJoinRequest(b))
	case MsgAssignment:
		return boxDecode(decodeAssignment(b))
	case MsgRelease:
		return boxDecode(decodeRelease(b))
	case MsgReject:
		return boxDecode(decodeReject(b))
	case MsgShareConfirm:
		return boxDecode(decodeShareConfirm(b))
	case MsgPromote:
		return boxDecode(decodePromote(b))
	case MsgRenew:
		return boxDecode(decodeRenew(b))
	case MsgRenewAck:
		return boxDecode(decodeRenewAck(b))
	case MsgRenewNack:
		return boxDecode(decodeRenewNack(b))
	case MsgAck:
		return boxDecode(decodeAck(b))
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, b[0])
	}
}

// boxDecode lifts a typed decode result into Unmarshal's (any, error)
// shape without returning a non-nil interface on error.
func boxDecode[T any](m T, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	return m, nil
}

// PeekHeader reads the fixed header every control message opens with —
// type tag, node ID and (for sequenced messages) sequence number —
// without decoding the body. Servers use it to screen frames and to
// address shed replies before paying for a full decode.
// ok is false for frames too short to carry a header or outside the
// frame cap; seq is 0 for PromoteMsg, the one unsequenced type.
func PeekHeader(b []byte) (t MsgType, node, seq uint32, ok bool) {
	if len(b) < 1+4 || len(b) > MaxFrameLen {
		return 0, 0, 0, false
	}
	t = MsgType(b[0])
	if t < MsgJoinRequest || t > MsgAck {
		return 0, 0, 0, false
	}
	node = binary.LittleEndian.Uint32(b[1:])
	if t != MsgPromote && len(b) >= 1+8 {
		seq = binary.LittleEndian.Uint32(b[5:])
	}
	return t, node, seq, true
}

// RequestIdent returns the (node, seq) identity of a node→AP request.
// ok is false for message types that are not requests.
func RequestIdent(msg any) (node, seq uint32, ok bool) {
	switch m := msg.(type) {
	case JoinRequest:
		return m.NodeID, m.Seq, true
	case ReleaseMsg:
		return m.NodeID, m.Seq, true
	case ShareConfirmMsg:
		return m.NodeID, m.Seq, true
	case RenewMsg:
		return m.NodeID, m.Seq, true
	}
	return 0, 0, false
}

// ReplyIdent returns the (node, seq) identity a reply echoes, so the
// node-side retry machine can match replies to the request attempt they
// answer and discard stale duplicates. ok is false for unsolicited
// messages (PromoteMsg) and requests.
func ReplyIdent(msg any) (node, seq uint32, ok bool) {
	switch m := msg.(type) {
	case AssignmentMsg:
		return m.NodeID, m.Seq, true
	case RejectMsg:
		return m.NodeID, m.Seq, true
	case RenewAckMsg:
		return m.NodeID, m.Seq, true
	case RenewNackMsg:
		return m.NodeID, m.Seq, true
	case AckMsg:
		return m.NodeID, m.Seq, true
	}
	return 0, 0, false
}

// Sharer is one confirmed SDM occupant of a channel, as SharersOn reports
// it.
type Sharer struct {
	NodeID   uint32
	WidthHz  float64
	Harmonic int8
}

// maxHarmonic bounds the SDM slots handed to rejected nodes (± the AP
// TMA's usable range).
const maxHarmonic = 4

// maxReplyLen is the longest reply the controller encodes (RenewAckMsg).
const maxReplyLen = 1 + 8 + 24 + 2

// hold is what spectrum a record's node holds: none, an FDM channel of its
// own, or an SDM share slot. A record holding either has a lease.
type hold uint8

const (
	holdNone hold = iota
	// holdOwner: the allocator books the record's grant.
	holdOwner
	// holdSharer: the record is listed in the controller's sharers index
	// under its center.
	holdSharer
)

// peer is everything the AP remembers about one node ID — the AP's only
// per-node state. It is created by the first request the controller
// answers for the ID and ends in one delete (forget), so lease, grant and
// cached reply cannot outlive one another.
type peer struct {
	// at is the node's last contact time: what ExpireLeases measures
	// LeaseTTL of silence from, whether or not the node holds spectrum.
	at float64
	// center and width are the spectrum held: an owner's channel, or the
	// center of the channel a sharer shares (copied verbatim from an
	// assignment, so float equality is exact) and its occupied width.
	center, width float64
	id            uint32
	// seq is the last non-zero sequence number the node sent and
	// reply[:replyLen] the reply it drew: exact-duplicate suppression.
	seq uint32
	// harmonic is a sharer's TMA slot, 0 for everyone else.
	harmonic int8
	hold     hold
	replyLen uint8
	reply    [maxReplyLen]byte
}

// grant is the spectrum p holds as an Assignment: the FSK offset is the
// width's FSKFraction, as Allocate and AllocateRegion set it, so an
// owner's grant equals its allocator entry.
func (p *peer) grant() Assignment {
	return Assignment{NodeID: p.id, CenterHz: p.center, WidthHz: p.width, FSKOffsetHz: p.width * FSKFraction}
}

// Controller is the AP-side handler of the initialization protocol: it
// owns an Allocator and answers JoinRequests with Assignments (or a
// Reject carrying an SDM share slot when FDM is exhausted). It also keeps
// the SDM sharer registry that makes spectrum release churn-safe: a
// channel whose FDM owner leaves is not returned to the free pool while
// sharers still occupy it — instead one sharer is promoted to owner.
//
// The controller is transactional against a lossy side channel:
//
//   - Requests are idempotent. A retransmitted JoinRequest from a node
//     that already holds spectrum re-sends its existing grant (or its
//     recorded share slot); duplicate Release, ShareConfirm and Renew
//     are harmless.
//   - Exact duplicates (same node and sequence number) short-circuit to
//     a cached copy of the original reply, so even non-idempotent future
//     request types stay retry-safe.
//   - Assignments are leases. When LeaseTTL > 0, a node that has not
//     renewed within the TTL is expired by ExpireLeases and its spectrum
//     reclaimed through the same churn-safe release path a voluntary
//     Release takes — sharers of an expired owner are promoted, never
//     stranded.
//   - What the AP remembers is soft state: one record per answered node
//     ID, dropped whole on release or after LeaseTTL of silence, so an ID
//     that never obtained a lease (a nacked renew, a reject never
//     confirmed) is forgotten on the same clock as one that did.
type Controller struct {
	Alloc *Allocator
	// nextHarmonic round-robins SDM slots handed to rejected nodes.
	nextHarmonic int
	// nextShare round-robins which existing channel each overflow node
	// shares, spreading the SDM load across hosts.
	nextShare int
	// LeaseTTL is how long a node's record — and the spectrum it holds —
	// survives without contact; 0 disables expiry (records then live
	// until released).
	LeaseTTL float64
	// peers holds the one record per node ID.
	peers map[uint32]*peer
	// leases counts the records that hold spectrum.
	leases int
	// sharers indexes the records of confirmed SDM sharers by the center
	// of the channel they share, in confirmation order.
	sharers map[float64][]*peer
	// pending holds unsolicited AP→node pushes (PromoteMsg) produced as
	// side effects of releases, drained by TakeNotifications.
	pending [][]byte
	// now is the controller's monotonic clock, advanced by HandleAtAppend
	// and ExpireLeases.
	now float64
}

// NewController builds the AP-side protocol handler over a band.
func NewController(band Band) *Controller {
	c := &Controller{Alloc: NewAllocator(band)}
	c.resetState()
	return c
}

func (c *Controller) resetState() {
	c.peers = make(map[uint32]*peer)
	c.leases = 0
	c.sharers = make(map[float64][]*peer)
	c.pending = nil
}

// Restart models an AP reboot: every volatile book — allocations, sharer
// registry, leases, duplicate-suppression cache — is lost. The clock and
// configuration survive. Nodes discover the restart when their next
// renew is nacked, and rejoin from scratch.
func (c *Controller) Restart() {
	c.Alloc = NewAllocator(c.Alloc.band)
	c.resetState()
}

// NowS returns the controller's clock (the latest time it has seen).
func (c *Controller) NowS() float64 { return c.now }

// touch returns nodeID's record, created on first contact, with its
// last-contact time set to the controller's clock.
func (c *Controller) touch(nodeID uint32) *peer {
	p := c.peers[nodeID]
	if p == nil {
		p = &peer{id: nodeID}
		c.peers[nodeID] = p
	}
	p.at = c.now
	return p
}

// HoldsLease reports whether nodeID currently holds a live lease.
func (c *Controller) HoldsLease(nodeID uint32) bool {
	p := c.peers[nodeID]
	return p != nil && p.hold != holdNone
}

// Leaseholders returns every node ID with a live lease (owners and SDM
// sharers alike), sorted ascending. It is the multi-AP audit's view of
// the books: walking each AP's leaseholders costs O(total leases)
// instead of probing every node against every AP.
func (c *Controller) Leaseholders() []uint32 {
	out := make([]uint32, 0, c.leases)
	for id, p := range c.peers {
		if p.hold != holdNone {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Holding reports the spectrum nodeID holds: its FDM channel, or — shared
// true — the center of the channel it shares as a confirmed SDM sharer,
// with its occupied width. ok is false when it holds none.
func (c *Controller) Holding(nodeID uint32) (a Assignment, shared, ok bool) {
	p := c.peers[nodeID]
	if p == nil || p.hold == holdNone {
		return Assignment{}, false, false
	}
	return p.grant(), p.hold == holdSharer, true
}

// SharersOn returns the confirmed SDM occupants of the channel centered at
// centerHz, in confirmation order.
func (c *Controller) SharersOn(centerHz float64) []Sharer {
	var out []Sharer
	for _, p := range c.sharers[centerHz] {
		out = append(out, Sharer{NodeID: p.id, WidthHz: p.width, Harmonic: p.harmonic})
	}
	return out
}

// unshare strikes p from the sharers index.
func (c *Controller) unshare(p *peer) {
	occ := c.sharers[p.center]
	if i := slices.Index(occ, p); i >= 0 {
		occ = slices.Delete(occ, i, i+1)
	}
	if len(occ) == 0 {
		delete(c.sharers, p.center)
	} else {
		c.sharers[p.center] = occ
	}
}

// release frees p's spectrum churn-safely. A leaving sharer is simply
// struck from the index. A leaving FDM owner whose channel still hosts
// sharers must NOT hand the whole channel back to the pool — a later
// joiner would be granted it as an exclusive channel and silently collide
// with the live sharers. Instead the widest sharer (the demand best
// matched to the freed channel; its extent then covers every remaining
// narrower sharer, which all sit at the same center) is promoted to owner
// of the spectrum it already occupies, and the PromoteMsg push is queued
// for TakeNotifications; the sharer's record becomes the owner's.
func (c *Controller) release(p *peer) {
	if p.hold == holdSharer {
		c.unshare(p)
		return
	}
	asg := p.grant()
	if c.Alloc.Release(asg) != nil {
		return
	}
	occ := c.sharers[asg.CenterHz]
	if len(occ) == 0 {
		return
	}
	w := occ[0]
	for _, s := range occ[1:] {
		if s.width > w.width || (s.width == w.width && s.id < w.id) {
			w = s
		}
	}
	// A sharer wider than its host already stuck out before the churn;
	// promotion keeps the status quo by clamping to the freed channel
	// rather than overlapping the neighbours.
	promoted, err := c.Alloc.AllocateRegion(w.id, asg.CenterHz, min(w.width, asg.WidthHz))
	if err != nil {
		// The region was just freed, so this cannot happen; keep the
		// sharer registered rather than corrupt the books.
		return
	}
	c.unshare(w)
	w.hold, w.center, w.width, w.harmonic = holdOwner, promoted.CenterHz, promoted.WidthHz, 0
	c.pending = append(c.pending, PromoteMsg{
		NodeID:      promoted.NodeID,
		CenterHz:    promoted.CenterHz,
		WidthHz:     promoted.WidthHz,
		FSKOffsetHz: promoted.FSKOffsetHz,
	}.AppendTo(nil))
}

// forget ends p's record: the spectrum it holds is released, and the one
// delete takes its lease, share slot and cached reply together — a kept
// reply would answer the ID's next first request with a stale grant.
func (c *Controller) forget(p *peer) {
	if p.hold != holdNone {
		c.release(p)
		c.leases--
	}
	delete(c.peers, p.id)
}

// TakeNotifications drains the queued unsolicited AP→node pushes
// (PromoteMsg frames) produced by releases and lease expiries. The
// caller delivers them over the side channel; a lost push is repaired by
// the target node's next RenewAck.
func (c *Controller) TakeNotifications() [][]byte {
	p := c.pending
	c.pending = nil
	return p
}

// ExpireLeases forgets every node silent for longer than LeaseTTL as of
// now and returns, ascending, the IDs of those that held spectrum.
// Expired owners go through the same churn-safe release path as
// voluntary leavers, so sharers of a dead owner are promoted (the
// PromoteMsg pushes are queued alongside the returned IDs). Expiry order
// is ascending node ID, making crash storms bit-reproducible.
func (c *Controller) ExpireLeases(now float64) []uint32 {
	if now > c.now {
		c.now = now
	}
	if c.LeaseTTL <= 0 {
		return nil
	}
	var silent []uint32
	for id, p := range c.peers {
		if c.now-p.at > c.LeaseTTL {
			silent = append(silent, id)
		}
	}
	slices.Sort(silent)
	expired := silent[:0]
	for _, id := range silent {
		p := c.peers[id]
		if p.hold != holdNone {
			expired = append(expired, id)
		}
		c.forget(p)
	}
	return expired
}

// LeaseCount returns the number of live leases — nodes that hold spectrum
// and have been neither released nor expired.
func (c *Controller) LeaseCount() int { return c.leases }

// RecordCount returns the number of node IDs the controller remembers
// anything about: the leaseholders plus the IDs whose last answer (a
// nack, an unconfirmed reject) is still cached for retransmissions.
func (c *Controller) RecordCount() int { return len(c.peers) }

// AuditBooks cross-checks the controller's internal books — the
// daemon-side equivalent of the network layer's ValidateSpectrum
// discipline, covering the state a socket server owns without a
// simulated deployment around it. Besides the allocator's own invariants
// and every record filed under its own ID, it checks three facts:
//
//   - the allocator books exactly the owners' channels: each owner
//     record's grant is an entry, and there are as many entries as owners
//     (distinct IDs make distinct grants, so that is a one-to-one match);
//   - the sharers index lists exactly the sharer records, each under its
//     own center, with no empty list kept;
//   - the lease counter counts the records that hold spectrum.
//
// nil means consistent; the load harness asserts this after a storm
// quiesces.
func (c *Controller) AuditBooks() error {
	if err := c.Alloc.Validate(); err != nil {
		return err
	}
	owners, sharers := 0, 0
	for id, p := range c.peers {
		if p.id != id {
			return fmt.Errorf("mac: record of node %d filed under %d", p.id, id)
		}
		switch p.hold {
		case holdOwner:
			owners++
			if c.Alloc.find(p.grant()) < 0 {
				return fmt.Errorf("mac: channel of owner %d missing from the allocator", id)
			}
		case holdSharer:
			sharers++
			if !slices.Contains(c.sharers[p.center], p) {
				return fmt.Errorf("mac: sharer %d on %.0f Hz missing from the index", id, p.center)
			}
		}
	}
	if len(c.Alloc.order) != owners {
		return fmt.Errorf("mac: allocator books %d channels for %d owners", len(c.Alloc.order), owners)
	}
	indexed := 0
	for center, occ := range c.sharers {
		if len(occ) == 0 {
			return fmt.Errorf("mac: empty sharer list kept for channel %.0f Hz", center)
		}
		indexed += len(occ)
	}
	if indexed != sharers {
		return fmt.Errorf("mac: sharers index holds %d entries for %d sharers", indexed, sharers)
	}
	if owners+sharers != c.leases {
		return fmt.Errorf("mac: lease counter reads %d, %d records hold spectrum", c.leases, owners+sharers)
	}
	return nil
}

// replay serves an exact retransmission of a node's last request from
// its record p (nil: none): the original reply is re-appended to dst
// without re-executing anything, and without counting as contact.
func (p *peer) replay(dst []byte, seq uint32) ([]byte, bool) {
	if p != nil && seq != 0 && p.seq == seq {
		return append(dst, p.reply[:p.replyLen]...), true
	}
	return nil, false
}

// remember caches a request's encoded reply in the node's record for
// duplicate suppression; p is the record the request found (nil: none).
// An answer is contact: it creates the record of an ID that holds no
// lease (a nacked renew, an unconfirmed reject) and restarts its TTL.
func (c *Controller) remember(p *peer, node, seq uint32, reply []byte) {
	if seq == 0 {
		return
	}
	if p == nil {
		p = c.touch(node)
	}
	p.at, p.seq = c.now, seq
	p.replyLen = uint8(copy(p.reply[:], reply))
}

// HandleAtAppend processes one encoded control message arriving at time
// now and appends the encoded reply to dst (nil allocates a fresh one).
// Every request gets a reply (Assignment/Reject for joins, RenewAck/Nack
// for renews, Ack for releases and share confirms); promotion pushes are
// queued for TakeNotifications rather than returned, because they are
// addressed to a different node than the sender. The clock never runs
// backwards: a now before the controller's NowS is handled at NowS.
//
// This is the server hot path. Decoding uses the typed decoders (no
// interface boxing), replies encode through the AppendTo encoders into
// dst, and the duplicate-suppression cache is a fixed array inside the
// node's record, so a caller that reuses dst handles a steady-state
// request — renew, ack'd release, idempotent re-grant — with zero heap
// allocations.
func (c *Controller) HandleAtAppend(dst, raw []byte, now float64) ([]byte, error) {
	if now > c.now {
		c.now = now
	}
	if err := frameBounds(raw); err != nil {
		return nil, err
	}
	mark := len(dst)
	switch t := MsgType(raw[0]); t {
	case MsgJoinRequest:
		m, err := decodeJoinRequest(raw)
		if err != nil {
			return nil, err
		}
		p := c.peers[m.NodeID]
		if out, hit := p.replay(dst, m.Seq); hit {
			return out, nil
		}
		out, err := c.handleJoin(dst, p, m)
		if err != nil {
			return nil, err
		}
		c.remember(p, m.NodeID, m.Seq, out[mark:])
		return out, nil
	case MsgShareConfirm:
		m, err := decodeShareConfirm(raw)
		if err != nil {
			return nil, err
		}
		p := c.peers[m.NodeID]
		if out, hit := p.replay(dst, m.Seq); hit {
			return out, nil
		}
		out, err := c.handleShareConfirm(dst, m)
		if err != nil {
			return nil, err
		}
		c.remember(p, m.NodeID, m.Seq, out[mark:])
		return out, nil
	case MsgRelease:
		m, err := decodeRelease(raw)
		if err != nil {
			return nil, err
		}
		// Never replayed or remembered: a release is idempotent (the
		// retransmission finds nothing to free, queues no second promote
		// and draws the same ack), and it ends the node's record.
		if p := c.peers[m.NodeID]; p != nil {
			c.forget(p)
		}
		return AckMsg{NodeID: m.NodeID, Seq: m.Seq}.AppendTo(dst), nil
	case MsgRenew:
		m, err := decodeRenew(raw)
		if err != nil {
			return nil, err
		}
		p := c.peers[m.NodeID]
		if out, hit := p.replay(dst, m.Seq); hit {
			return out, nil
		}
		out := c.handleRenew(dst, p, m)
		c.remember(p, m.NodeID, m.Seq, out[mark:])
		return out, nil
	case MsgAssignment, MsgReject, MsgPromote, MsgRenewAck, MsgRenewNack, MsgAck:
		// Well-formed frames of reply/push types are not requests an AP
		// answers; validate their length like Unmarshal, then refuse.
		if _, err := Unmarshal(raw); err != nil {
			return nil, err
		}
		return nil, ErrUnknownType
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownType, raw[0])
	}
}

// handleJoin answers m; p is the node's record (nil: none), as in
// handleRenew.
func (c *Controller) handleJoin(dst []byte, p *peer, m JoinRequest) ([]byte, error) {
	// A NaN demand slips past "<= 0" comparisons and would plant a
	// NaN-centered channel in the books; refuse non-finite demand
	// at the trust boundary instead.
	if math.IsNaN(m.DemandBps) || math.IsInf(m.DemandBps, 0) {
		return nil, fmt.Errorf("%w: JoinRequest demand %v", ErrBadField, m.DemandBps)
	}
	// Idempotent re-grant: a node the books already know asked
	// again, which means the original reply was lost. Re-send its
	// standing state instead of a second channel.
	if p != nil && p.hold != holdNone {
		p.at = c.now
		if p.hold == holdSharer {
			return RejectMsg{NodeID: m.NodeID, Seq: m.Seq, ShareHz: p.center, Harmonic: p.harmonic}.AppendTo(dst), nil
		}
		return assignmentMsg(dst, m.Seq, p.grant()), nil
	}
	asg, err := c.Alloc.Allocate(m.NodeID, m.DemandBps)
	if err == nil {
		p = c.touch(m.NodeID)
		p.hold, p.center, p.width = holdOwner, asg.CenterHz, asg.WidthHz
		c.leases++
		return assignmentMsg(dst, m.Seq, asg), nil
	}
	if errors.Is(err, ErrBandFull) {
		// Fall back to SDM: spread overflow nodes across existing
		// channels round-robin, each on a rotating harmonic, so no
		// single channel absorbs all the spatial reuse. The lease
		// starts when the node confirms its placement.
		share := c.Alloc.band.LowHz + BandwidthForRate(m.DemandBps)/2
		if got := c.Alloc.order; len(got) > 0 {
			share = got[c.nextShare%len(got)].CenterHz
			c.nextShare++
		}
		h := c.nextHarmonic%maxHarmonic + 1
		if c.nextHarmonic%2 == 1 {
			h = -h
		}
		c.nextHarmonic++
		return RejectMsg{NodeID: m.NodeID, Seq: m.Seq, ShareHz: share, Harmonic: int8(h)}.AppendTo(dst), nil
	}
	return nil, err
}

func (c *Controller) handleShareConfirm(dst []byte, m ShareConfirmMsg) ([]byte, error) {
	// The confirmed placement becomes a map key and a promotion
	// width, so adversarial values corrupt the books permanently:
	// require a finite in-band center and a sane positive width.
	if !(m.ShareHz >= c.Alloc.band.LowHz && m.ShareHz <= c.Alloc.band.HighHz) {
		return nil, fmt.Errorf("%w: ShareConfirm center %v outside %v", ErrBadField, m.ShareHz, c.Alloc.band)
	}
	if !(m.WidthHz > 0) || math.IsInf(m.WidthHz, 0) {
		return nil, fmt.Errorf("%w: ShareConfirm width %v", ErrBadField, m.WidthHz)
	}
	p := c.touch(m.NodeID)
	switch p.hold {
	case holdOwner:
		// An FDM owner confirming a share would double-book itself;
		// ack without registering and let its next renew resync it
		// onto the channel it actually owns.
		return AckMsg{NodeID: m.NodeID, Seq: m.Seq}.AppendTo(dst), nil
	case holdSharer:
		c.unshare(p)
	default:
		c.leases++
	}
	// Register (or re-register) the node on the channel it settled on
	// after TMA placement.
	p.hold, p.center, p.width, p.harmonic = holdSharer, m.ShareHz, m.WidthHz, m.Harmonic
	c.sharers[m.ShareHz] = append(c.sharers[m.ShareHz], p)
	return AckMsg{NodeID: m.NodeID, Seq: m.Seq}.AppendTo(dst), nil
}

func (c *Controller) handleRenew(dst []byte, p *peer, m RenewMsg) []byte {
	if p == nil || p.hold == holdNone {
		return RenewNackMsg{NodeID: m.NodeID, Seq: m.Seq}.AppendTo(dst)
	}
	p.at = c.now
	a := p.grant()
	return RenewAckMsg{
		NodeID:      m.NodeID,
		Seq:         m.Seq,
		CenterHz:    a.CenterHz,
		WidthHz:     a.WidthHz,
		FSKOffsetHz: a.FSKOffsetHz,
		Harmonic:    p.harmonic,
		Shared:      p.hold == holdSharer,
	}.AppendTo(dst)
}

// assignmentMsg appends the grant reply carrying a to dst.
func assignmentMsg(dst []byte, seq uint32, a Assignment) []byte {
	return AssignmentMsg{
		NodeID:      a.NodeID,
		Seq:         seq,
		CenterHz:    a.CenterHz,
		WidthHz:     a.WidthHz,
		FSKOffsetHz: a.FSKOffsetHz,
	}.AppendTo(dst)
}
