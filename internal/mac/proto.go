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

// Marshal encodes any control message into a fresh slice.
func Marshal(msg any) ([]byte, error) { return MarshalInto(nil, msg) }

// MarshalInto appends the wire encoding of msg to dst and returns the
// extended slice — the buffer-reusing form of Marshal. Callers holding a
// concrete message type should prefer its AppendTo method, which skips
// the interface boxing this signature forces on the argument.
func MarshalInto(dst []byte, msg any) ([]byte, error) {
	switch m := msg.(type) {
	case JoinRequest:
		return m.AppendTo(dst), nil
	case AssignmentMsg:
		return m.AppendTo(dst), nil
	case ReleaseMsg:
		return m.AppendTo(dst), nil
	case RejectMsg:
		return m.AppendTo(dst), nil
	case ShareConfirmMsg:
		return m.AppendTo(dst), nil
	case PromoteMsg:
		return m.AppendTo(dst), nil
	case RenewMsg:
		return m.AppendTo(dst), nil
	case RenewAckMsg:
		return m.AppendTo(dst), nil
	case RenewNackMsg:
		return m.AppendTo(dst), nil
	case AckMsg:
		return m.AppendTo(dst), nil
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
// without decoding the body. Servers use it to route frames to per-node
// shards and to address shed replies before paying for a full decode.
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

// Sharer is one confirmed SDM occupant of a channel, as recorded by the
// controller's spectrum books.
type Sharer struct {
	NodeID   uint32
	WidthHz  float64
	Harmonic int8
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
//     request types stay retry-safe. A node's cached entry goes with
//     its lease: release and expiry both drop it.
//   - Assignments are leases. When LeaseTTL > 0, a node that has not
//     renewed within the TTL is expired by ExpireLeases and its spectrum
//     reclaimed through the same churn-safe release path a voluntary
//     Release takes — sharers of an expired owner are promoted, never
//     stranded.
type Controller struct {
	Alloc *Allocator
	// nextHarmonic round-robins SDM slots handed to rejected nodes.
	nextHarmonic int
	// nextShare round-robins which existing channel each overflow node
	// shares, spreading the SDM load across hosts.
	nextShare int
	// MaxHarmonic bounds the SDM slots (± the AP TMA's usable range).
	MaxHarmonic int
	// LeaseTTL is how long an assignment survives without a renew; 0
	// disables expiry (leases then live until released).
	LeaseTTL float64
	// sharers lists the confirmed SDM occupants per channel, keyed by the
	// exact center frequency the sharer confirmed (centers are copied
	// verbatim from assignments, so float equality is exact).
	sharers map[float64][]Sharer
	// shareOf maps a sharer's node ID to the channel center it confirmed.
	shareOf map[uint32]float64
	// renewedAt records each leaseholder's last contact time.
	renewedAt map[uint32]float64
	// lastSeq/lastReply implement exact-duplicate suppression: the last
	// non-zero sequence number each node sent, and the reply it got.
	lastSeq   map[uint32]uint32
	lastReply map[uint32][]byte
	// pending holds unsolicited AP→node pushes (PromoteMsg) produced as
	// side effects of releases, drained by TakeNotifications.
	pending [][]byte
	// now is the controller's monotonic clock, advanced by HandleAt and
	// ExpireLeases.
	now float64
}

// NewController builds the AP-side protocol handler over a band.
func NewController(band Band) *Controller {
	c := &Controller{MaxHarmonic: 4}
	c.Alloc = NewAllocator(band)
	c.resetState()
	return c
}

func (c *Controller) resetState() {
	c.sharers = make(map[float64][]Sharer)
	c.shareOf = make(map[uint32]float64)
	c.renewedAt = make(map[uint32]float64)
	c.lastSeq = make(map[uint32]uint32)
	c.lastReply = make(map[uint32][]byte)
	c.pending = nil
}

// Restart models an AP reboot: every volatile book — allocations, sharer
// registry, leases, duplicate-suppression cache — is lost. The clock and
// configuration survive. Nodes discover the restart when their next
// renew is nacked, and rejoin from scratch.
func (c *Controller) Restart() {
	old := c.Alloc
	c.Alloc = NewAllocator(old.band)
	c.Alloc.Policy = old.Policy
	c.Alloc.FSKFraction = old.FSKFraction
	c.resetState()
}

// NowS returns the controller's clock (the latest time it has seen).
func (c *Controller) NowS() float64 { return c.now }

// touch marks nodeID's lease as renewed at the controller's clock.
func (c *Controller) touch(nodeID uint32) { c.renewedAt[nodeID] = c.now }

// HoldsLease reports whether nodeID currently holds a live lease.
func (c *Controller) HoldsLease(nodeID uint32) bool {
	_, ok := c.renewedAt[nodeID]
	return ok
}

// Leaseholders returns every node ID with a live lease (owners and SDM
// sharers alike), sorted ascending. It is the multi-AP audit's view of
// the books: walking each AP's leaseholders costs O(total leases)
// instead of probing every node against every AP.
func (c *Controller) Leaseholders() []uint32 {
	out := make([]uint32, 0, len(c.renewedAt))
	for id := range c.renewedAt {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// SharerChannel reports whether nodeID is a registered SDM sharer and, if
// so, the center frequency of the channel it shares.
func (c *Controller) SharerChannel(nodeID uint32) (float64, bool) {
	center, ok := c.shareOf[nodeID]
	return center, ok
}

// SharersOn returns the confirmed SDM occupants of the channel centered at
// centerHz, in confirmation order.
func (c *Controller) SharersOn(centerHz float64) []Sharer {
	return append([]Sharer(nil), c.sharers[centerHz]...)
}

// confirmShare registers (or re-registers) a node as an SDM sharer on the
// channel it settled on after TMA placement.
func (c *Controller) confirmShare(m ShareConfirmMsg) {
	if old, ok := c.shareOf[m.NodeID]; ok {
		c.removeSharer(m.NodeID, old)
	}
	c.sharers[m.ShareHz] = append(c.sharers[m.ShareHz], Sharer{
		NodeID: m.NodeID, WidthHz: m.WidthHz, Harmonic: m.Harmonic,
	})
	c.shareOf[m.NodeID] = m.ShareHz
}

func (c *Controller) removeSharer(nodeID uint32, centerHz float64) {
	occ := c.sharers[centerHz]
	for i, s := range occ {
		if s.NodeID == nodeID {
			occ = append(occ[:i], occ[i+1:]...)
			break
		}
	}
	if len(occ) == 0 {
		delete(c.sharers, centerHz)
	} else {
		c.sharers[centerHz] = occ
	}
	delete(c.shareOf, nodeID)
}

// release frees a node's spectrum churn-safely. A leaving sharer is simply
// struck from the registry. A leaving FDM owner whose channel still hosts
// sharers must NOT hand the whole channel back to the pool — a later
// joiner would be granted it as an exclusive channel and silently collide
// with the live sharers. Instead the widest sharer (the demand best
// matched to the freed channel; its extent then covers every remaining
// narrower sharer, which all sit at the same center) is promoted to owner
// of the spectrum it already occupies, and the encoded PromoteMsg push is
// returned so the caller can queue it for the promoted node.
func (c *Controller) release(nodeID uint32) ([]byte, error) {
	if center, ok := c.shareOf[nodeID]; ok {
		c.removeSharer(nodeID, center)
		return nil, nil
	}
	asg, ok := c.Alloc.Lookup(nodeID)
	if !ok {
		// Releasing an unknown node is a no-op, matching how APs treat
		// stale releases.
		return nil, nil
	}
	_ = c.Alloc.Release(nodeID)
	occ := c.sharers[asg.CenterHz]
	if len(occ) == 0 {
		return nil, nil
	}
	p := occ[0]
	for _, s := range occ[1:] {
		if s.WidthHz > p.WidthHz || (s.WidthHz == p.WidthHz && s.NodeID < p.NodeID) {
			p = s
		}
	}
	width := p.WidthHz
	if width > asg.WidthHz {
		// A sharer wider than its host already stuck out before the
		// churn; promotion keeps the status quo by clamping to the freed
		// channel rather than overlapping the neighbours.
		width = asg.WidthHz
	}
	promoted, err := c.Alloc.AllocateRegion(p.NodeID, asg.CenterHz, width)
	if err != nil {
		// The region was just freed, so this cannot happen; keep the
		// sharer registered rather than corrupt the books.
		return nil, nil
	}
	c.removeSharer(p.NodeID, asg.CenterHz)
	return Marshal(PromoteMsg{
		NodeID:      promoted.NodeID,
		CenterHz:    promoted.CenterHz,
		WidthHz:     promoted.WidthHz,
		FSKOffsetHz: promoted.FSKOffsetHz,
	})
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

// ExpireLeases reclaims the spectrum of every leaseholder silent for
// longer than LeaseTTL as of now. Expired owners go through the same
// churn-safe release path as voluntary leavers, so sharers of a dead
// owner are promoted (the PromoteMsg pushes are queued alongside the
// returned IDs). Expiry order is ascending node ID, making crash storms
// bit-reproducible. It returns the expired node IDs.
func (c *Controller) ExpireLeases(now float64) []uint32 {
	if now > c.now {
		c.now = now
	}
	if c.LeaseTTL <= 0 {
		return nil
	}
	var expired []uint32
	for id, at := range c.renewedAt {
		if c.now-at > c.LeaseTTL {
			expired = append(expired, id)
		}
	}
	slices.Sort(expired)
	for _, id := range expired {
		note, _ := c.release(id)
		if len(note) > 0 {
			c.pending = append(c.pending, note)
		}
		delete(c.renewedAt, id)
		delete(c.lastSeq, id)
		delete(c.lastReply, id)
	}
	return expired
}

// LeaseCount returns the number of live leases — leaseholders that have
// contacted the controller and been neither released nor expired.
func (c *Controller) LeaseCount() int { return len(c.renewedAt) }

// AuditBooks cross-checks the controller's internal books — the
// daemon-side equivalent of the network layer's ValidateSpectrum
// discipline, covering the state a socket server owns without a
// simulated deployment around it: the allocator's invariants hold, the
// sharer registry and its reverse map agree, no node is double-booked as
// both FDM owner and SDM sharer, and leases exist exactly for the nodes
// holding spectrum. nil means consistent; the load harness asserts this
// after a storm quiesces.
func (c *Controller) AuditBooks() error {
	if err := c.Alloc.Validate(); err != nil {
		return err
	}
	for center, occ := range c.sharers {
		if len(occ) == 0 {
			return fmt.Errorf("mac: empty sharer list kept for channel %.0f Hz", center)
		}
		for _, s := range occ {
			if got, ok := c.shareOf[s.NodeID]; !ok || got != center {
				return fmt.Errorf("mac: sharer %d on %.0f Hz missing from the reverse map", s.NodeID, center)
			}
		}
	}
	for id, center := range c.shareOf {
		found := false
		for _, s := range c.sharers[center] {
			if s.NodeID == id {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("mac: shareOf[%d] = %.0f Hz has no sharer entry", id, center)
		}
		if _, ok := c.Alloc.Lookup(id); ok {
			return fmt.Errorf("mac: node %d double-booked as FDM owner and SDM sharer", id)
		}
		if _, ok := c.renewedAt[id]; !ok {
			return fmt.Errorf("mac: SDM sharer %d holds no lease", id)
		}
	}
	for _, a := range c.Alloc.order {
		if _, ok := c.renewedAt[a.NodeID]; !ok {
			return fmt.Errorf("mac: FDM owner %d holds no lease", a.NodeID)
		}
	}
	for id := range c.renewedAt {
		if _, ok := c.Alloc.Lookup(id); ok {
			continue
		}
		if _, ok := c.shareOf[id]; ok {
			continue
		}
		return fmt.Errorf("mac: lease held by node %d with no spectrum books", id)
	}
	return nil
}

// Handle processes one encoded control message at the controller's
// current clock and returns the encoded reply. See HandleAt.
func (c *Controller) Handle(raw []byte) ([]byte, error) {
	return c.HandleAt(raw, c.now)
}

// HandleAt processes one encoded control message arriving at time now.
// Every request gets a reply (Assignment/Reject for joins, RenewAck/Nack
// for renews, Ack for releases and share confirms); promotion pushes are
// queued for TakeNotifications rather than returned, because they are
// addressed to a different node than the sender. The reply is a fresh
// slice; servers that reuse reply buffers call HandleAtAppend instead.
func (c *Controller) HandleAt(raw []byte, now float64) ([]byte, error) {
	return c.HandleAtAppend(nil, raw, now)
}

// replay serves an exact retransmission of a node's last request from
// the duplicate-suppression cache: the original reply is re-appended to
// dst without re-executing anything.
func (c *Controller) replay(dst []byte, node, seq uint32) ([]byte, bool) {
	if seq != 0 && c.lastSeq[node] == seq {
		return append(dst, c.lastReply[node]...), true
	}
	return nil, false
}

// remember caches a request's encoded reply for duplicate suppression.
// The per-node cache slice is reused across requests, so the steady
// state writes into standing capacity instead of allocating.
func (c *Controller) remember(node, seq uint32, reply []byte) {
	if seq != 0 {
		c.lastSeq[node] = seq
		c.lastReply[node] = append(c.lastReply[node][:0], reply...)
	}
}

// HandleAtAppend is HandleAt with the reply appended to dst — the
// server hot path. Decoding uses the typed decoders (no interface
// boxing), replies encode through the AppendTo encoders into dst, and
// the duplicate-suppression cache recycles its per-node slices, so a
// caller that reuses dst handles a steady-state request — renew, ack'd
// release, idempotent re-grant — with zero heap allocations.
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
		if out, hit := c.replay(dst, m.NodeID, m.Seq); hit {
			return out, nil
		}
		out, err := c.handleJoin(dst, m)
		if err != nil {
			return nil, err
		}
		c.remember(m.NodeID, m.Seq, out[mark:])
		return out, nil
	case MsgShareConfirm:
		m, err := decodeShareConfirm(raw)
		if err != nil {
			return nil, err
		}
		if out, hit := c.replay(dst, m.NodeID, m.Seq); hit {
			return out, nil
		}
		out, err := c.handleShareConfirm(dst, m)
		if err != nil {
			return nil, err
		}
		c.remember(m.NodeID, m.Seq, out[mark:])
		return out, nil
	case MsgRelease:
		m, err := decodeRelease(raw)
		if err != nil {
			return nil, err
		}
		// Never replayed or remembered: a release is idempotent (the
		// retransmission finds nothing to free, queues no second promote
		// and draws the same ack), and handleRelease forgets the node.
		return c.handleRelease(dst, m)
	case MsgRenew:
		m, err := decodeRenew(raw)
		if err != nil {
			return nil, err
		}
		if out, hit := c.replay(dst, m.NodeID, m.Seq); hit {
			return out, nil
		}
		out, err := c.handleRenew(dst, m)
		if err != nil {
			return nil, err
		}
		c.remember(m.NodeID, m.Seq, out[mark:])
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

func (c *Controller) handleJoin(dst []byte, m JoinRequest) ([]byte, error) {
	// A NaN demand slips past "<= 0" comparisons and would plant a
	// NaN-centered channel in the books; refuse non-finite demand
	// at the trust boundary instead.
	if math.IsNaN(m.DemandBps) || math.IsInf(m.DemandBps, 0) {
		return nil, fmt.Errorf("%w: JoinRequest demand %v", ErrBadField, m.DemandBps)
	}
	// Idempotent re-grant: a node the books already know asked
	// again, which means the original reply was lost. Re-send its
	// standing state instead of ErrAlreadyAllocated.
	if asg, ok := c.Alloc.Lookup(m.NodeID); ok {
		c.touch(m.NodeID)
		return AssignmentMsg{
			NodeID:      m.NodeID,
			Seq:         m.Seq,
			CenterHz:    asg.CenterHz,
			WidthHz:     asg.WidthHz,
			FSKOffsetHz: asg.FSKOffsetHz,
		}.AppendTo(dst), nil
	}
	if center, ok := c.shareOf[m.NodeID]; ok {
		h := int8(0)
		for _, s := range c.sharers[center] {
			if s.NodeID == m.NodeID {
				h = s.Harmonic
			}
		}
		c.touch(m.NodeID)
		return RejectMsg{NodeID: m.NodeID, Seq: m.Seq, ShareHz: center, Harmonic: h}.AppendTo(dst), nil
	}
	asg, err := c.Alloc.Allocate(m.NodeID, m.DemandBps)
	if err == nil {
		c.touch(m.NodeID)
		return AssignmentMsg{
			NodeID:      m.NodeID,
			Seq:         m.Seq,
			CenterHz:    asg.CenterHz,
			WidthHz:     asg.WidthHz,
			FSKOffsetHz: asg.FSKOffsetHz,
		}.AppendTo(dst), nil
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
		h := c.nextHarmonic%c.MaxHarmonic + 1
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
	if _, ok := c.Alloc.Lookup(m.NodeID); ok {
		// An FDM owner confirming a share would double-book itself;
		// ack without registering and let its next renew resync it
		// onto the channel it actually owns.
		c.touch(m.NodeID)
		return AckMsg{NodeID: m.NodeID, Seq: m.Seq}.AppendTo(dst), nil
	}
	c.confirmShare(m)
	c.touch(m.NodeID)
	return AckMsg{NodeID: m.NodeID, Seq: m.Seq}.AppendTo(dst), nil
}

func (c *Controller) handleRelease(dst []byte, m ReleaseMsg) ([]byte, error) {
	note, err := c.release(m.NodeID)
	if err != nil {
		return nil, err
	}
	if len(note) > 0 {
		c.pending = append(c.pending, note)
	}
	// The lease goes, and the duplicate-suppression entry with it: no
	// lease is left for ExpireLeases to find the node by, and a kept
	// entry would answer the ID's next first request with a stale reply.
	delete(c.renewedAt, m.NodeID)
	delete(c.lastSeq, m.NodeID)
	delete(c.lastReply, m.NodeID)
	return AckMsg{NodeID: m.NodeID, Seq: m.Seq}.AppendTo(dst), nil
}

func (c *Controller) handleRenew(dst []byte, m RenewMsg) ([]byte, error) {
	if asg, ok := c.Alloc.Lookup(m.NodeID); ok {
		c.touch(m.NodeID)
		return RenewAckMsg{
			NodeID:      m.NodeID,
			Seq:         m.Seq,
			CenterHz:    asg.CenterHz,
			WidthHz:     asg.WidthHz,
			FSKOffsetHz: asg.FSKOffsetHz,
			Shared:      false,
		}.AppendTo(dst), nil
	}
	if center, ok := c.shareOf[m.NodeID]; ok {
		var s Sharer
		for _, occ := range c.sharers[center] {
			if occ.NodeID == m.NodeID {
				s = occ
			}
		}
		c.touch(m.NodeID)
		return RenewAckMsg{
			NodeID:      m.NodeID,
			Seq:         m.Seq,
			CenterHz:    center,
			WidthHz:     s.WidthHz,
			FSKOffsetHz: s.WidthHz * c.Alloc.FSKFraction,
			Harmonic:    s.Harmonic,
			Shared:      true,
		}.AppendTo(dst), nil
	}
	return RenewNackMsg{NodeID: m.NodeID, Seq: m.Seq}.AppendTo(dst), nil
}
