package mac

import (
	"hash/fnv"
	"testing"

	"mmx/internal/stats"
)

// TestControllerChurnTraceGolden pins every byte the controller emits over
// a seeded 20 000-message churn trace — joins (fresh, repeated, zero
// demand), share confirms of rejected nodes, renews, releases of owners
// and sharers, and exact retransmissions — as one FNV-64a hash over each
// reply and each drained promote push. The constant was recorded at the
// commit before the allocator's books became an ordered slice (PR 20), on
// the rebuild-and-sort implementation that now lives in
// alloc_oracle_test.go: placement, the round-robin share pick and
// promotion must read the same books in the same order.
func TestControllerChurnTraceGolden(t *testing.T) {
	const want = uint64(0xecfcf5c1cc710c37)
	got, grants, rejects, promotes := churnTraceHash(t)
	t.Logf("trace: %d grants, %d rejects, %d promotes, hash %#016x", grants, rejects, promotes, got)
	if grants < 1000 || rejects < 1000 || promotes < 100 {
		t.Fatalf("trace no longer exercises the books: %d grants, %d rejects, %d promotes", grants, rejects, promotes)
	}
	if got != want {
		t.Errorf("churn trace hash = %#016x, want %#016x", got, want)
	}
}

func churnTraceHash(t *testing.T) (sum uint64, grants, rejects, promotes int) {
	const (
		messages = 20000
		pool     = 600
	)
	demands := []float64{0.1e6, 0.5e6, 1e6, 1e6, 2e6, 2e6, 4e6, 8e6, 20e6}
	rng := stats.NewRNG(0xC4021)
	c := NewController(ISM24GHz())
	h := fnv.New64a()

	type nodeState struct {
		seq    uint32
		last   []byte    // last frame sent, for exact retransmission
		reject RejectMsg // standing reject awaiting its share confirm
		demand float64
		asked  bool // reject is live
	}
	nodes := make([]nodeState, pool)
	var waiting []uint32 // nodes with a live reject
	var dst []byte
	now, sent := 0.0, 0

	send := func(id uint32, raw []byte) any {
		n := &nodes[id]
		n.last = append(n.last[:0], raw...)
		now += 1e-3
		sent++
		out, err := c.HandleAtAppend(dst[:0], raw, now)
		var msg any
		if err != nil {
			h.Write([]byte{0xEE})
		} else {
			dst = out
			h.Write(out)
			if msg, err = Unmarshal(out); err != nil {
				t.Fatalf("reply does not decode: %v", err)
			}
		}
		for _, push := range c.TakeNotifications() {
			promotes++
			h.Write(push)
		}
		if err := c.AuditBooks(); err != nil {
			t.Fatalf("books after message %d: %v", sent, err)
		}
		return msg
	}
	frame := func(m any) []byte {
		raw, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	for sent < messages {
		id := uint32(rng.Intn(pool))
		n := &nodes[id]
		switch p := rng.Intn(100); {
		case p < 40: // join
			n.seq++
			n.demand = demands[rng.Intn(len(demands))]
			if rng.Intn(100) == 0 {
				n.demand = 0
			}
			switch m := send(id, frame(JoinRequest{NodeID: id, Seq: n.seq, DemandBps: n.demand})).(type) {
			case AssignmentMsg:
				grants++
			case RejectMsg:
				rejects++
				if !n.asked {
					waiting = append(waiting, id)
				}
				n.reject, n.asked = m, true
			}
		case p < 55: // share confirm of a rejected node
			if len(waiting) == 0 {
				continue
			}
			k := rng.Intn(len(waiting))
			id = waiting[k]
			waiting[k] = waiting[len(waiting)-1]
			waiting = waiting[:len(waiting)-1]
			n = &nodes[id]
			n.asked = false
			n.seq++
			send(id, frame(ShareConfirmMsg{NodeID: id, Seq: n.seq, ShareHz: n.reject.ShareHz,
				WidthHz: BandwidthForRate(n.demand), Harmonic: n.reject.Harmonic}))
		case p < 70: // renew
			n.seq++
			send(id, frame(RenewMsg{NodeID: id, Seq: n.seq}))
		case p < 95: // release
			n.seq++
			send(id, frame(ReleaseMsg{NodeID: id, Seq: n.seq}))
		default: // exact retransmission of the node's last frame
			if len(n.last) == 0 {
				continue
			}
			send(id, append([]byte(nil), n.last...))
		}
	}
	return h.Sum64(), grants, rejects, promotes
}
