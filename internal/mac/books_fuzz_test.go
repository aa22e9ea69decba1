package mac

import (
	"slices"
	"testing"
)

// FuzzControllerBooks drives byte-decoded sequences of join, share
// confirm, renew, release, exact retransmission, ExpireLeases and Restart
// through HandleAtAppend, three bytes an op, over eight node IDs and a
// band that fills after a few grants. After every op it requires
//
//   - AuditBooks() == nil: the allocator books exactly the owners'
//     channels, the sharers index exactly the sharer records;
//   - a join from a node that holds spectrum leaves the books as they
//     were — no second channel — and a fresh one draws the standing grant
//     or share slot again (an exact retransmission replays its first
//     reply instead);
//   - LeaseCount() == len(Leaseholders()).
//
// It checks invariants, not replies against a reference model of the
// controller: a step towards ROADMAP item 4(a)'s model, not the model.
func FuzzControllerBooks(f *testing.F) {
	// Fill the band with three 80 MHz channels, share the first twice,
	// join again as a sharer and retransmit, release the owner under its
	// sharers (the 80 MHz one is promoted), let everyone expire, restart,
	// rejoin.
	f.Add([]byte{
		0, 1, 7, 0, 2, 7, 0, 3, 7, 0, 4, 7, 1, 4, 7, 0, 5, 7, 1, 5, 0,
		2, 4, 0, 0, 4, 7, 4, 4, 0, 3, 1, 0, 0, 1, 7, 2, 4, 0, 0, 4, 7,
		5, 0, 255, 6, 0, 0, 0, 1, 7, 0, 2, 7,
	})
	// Seq 0 requests, a confirm out of band and a confirm on a live
	// channel.
	f.Add([]byte{0x80, 1, 100, 0, 2, 250, 1, 2, 3, 1, 5, 1, 0x81, 5, 2, 0x83, 1, 0, 0, 5, 9})

	f.Fuzz(func(t *testing.T, b []byte) {
		c := NewController(ISM24GHz())
		c.LeaseTTL = 1
		type node struct {
			seq    uint32
			last   []byte
			reject RejectMsg
		}
		var nodes [8]node
		now := 0.0
		var dst []byte
		b = b[:min(len(b), 3*512)]
		for op := 0; len(b) >= 3; op, b = op+1, b[3:] {
			kind, id, arg := b[0], uint32(b[1]%8), b[2]
			n := &nodes[id]
			now += 0.01
			seq := func() uint32 {
				if kind&0x80 != 0 {
					return 0
				}
				n.seq++
				return n.seq
			}
			demand := 0.5e6 * float64(uint(1)<<(arg%9))
			if arg == 255 {
				demand = 0
			}
			was, wasShared, held := c.Holding(id)
			booked := len(c.Alloc.order)
			var raw []byte
			switch kind % 8 {
			case 0:
				raw = JoinRequest{NodeID: id, Seq: seq(), DemandBps: demand}.AppendTo(nil)
			case 1:
				m := ShareConfirmMsg{NodeID: id, Seq: seq(), WidthHz: BandwidthForRate(demand), Harmonic: int8(arg%9) - 4}
				switch band := c.Alloc.band; arg / 9 % 4 {
				case 0:
					m.ShareHz = n.reject.ShareHz
				case 1:
					if len(c.Alloc.order) > 0 {
						m.ShareHz = c.Alloc.order[int(arg)%len(c.Alloc.order)].CenterHz
					}
				case 2:
					m.ShareHz = band.LowHz + float64(arg)/255*band.Width()
				default:
					m.ShareHz = band.HighHz + 1
				}
				raw = m.AppendTo(nil)
			case 2:
				raw = RenewMsg{NodeID: id, Seq: seq()}.AppendTo(nil)
			case 3:
				raw = ReleaseMsg{NodeID: id, Seq: seq()}.AppendTo(nil)
			case 4:
				raw = n.last
			case 5:
				now += float64(arg) / 128
				c.ExpireLeases(now)
			case 6:
				if arg == 0 {
					c.Restart()
				}
			default:
				now += float64(arg) / 64
			}
			if len(raw) > 0 {
				n.last = raw
				out, err := c.HandleAtAppend(dst[:0], raw, now)
				if err == nil {
					dst = out
				}
				msg, _ := Unmarshal(out)
				if r, ok := msg.(RejectMsg); ok {
					n.reject = r
				}
				if MsgType(raw[0]) == MsgJoinRequest && held {
					if got, gotShared, ok := c.Holding(id); !ok || got != was || gotShared != wasShared || len(c.Alloc.order) != booked {
						t.Fatalf("op %d: join from holder %d moved its books: %+v shared=%v → %+v shared=%v ok=%v, %d → %d channels",
							op, id, was, wasShared, got, gotShared, ok, booked, len(c.Alloc.order))
					}
					if kind%8 == 0 && !standing(msg, was, wasShared) {
						t.Fatalf("op %d: join from holder %d drew %+v, standing %+v shared=%v", op, id, msg, was, wasShared)
					}
				}
			}
			c.TakeNotifications()
			if err := c.AuditBooks(); err != nil {
				t.Fatalf("op %d (kind %d, node %d): %v", op, kind%8, id, err)
			}
			if holders := c.Leaseholders(); c.LeaseCount() != len(holders) || !slices.IsSorted(holders) {
				t.Fatalf("op %d: lease counter %d, leaseholders %v", op, c.LeaseCount(), holders)
			}
		}
	})
}

// standing reports whether a join's reply re-sends a standing grant: the
// owner's channel, or a sharer's center as a reject.
func standing(reply any, a Assignment, shared bool) bool {
	switch m := reply.(type) {
	case AssignmentMsg:
		return !shared && m.CenterHz == a.CenterHz && m.WidthHz == a.WidthHz && m.FSKOffsetHz == a.FSKOffsetHz
	case RejectMsg:
		return shared && m.ShareHz == a.CenterHz
	}
	return false
}
