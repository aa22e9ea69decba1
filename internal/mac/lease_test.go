package mac

import (
	"bytes"
	"testing"
)

// roundtrip pushes a request through the controller at a given time and
// decodes the reply; nil reply decodes to nil.
func handleAt(t *testing.T, c *Controller, m any, now float64) any {
	t.Helper()
	raw, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.HandleAtAppend(nil, raw, now)
	if err != nil {
		t.Fatal(err)
	}
	if reply == nil {
		return nil
	}
	msg, err := Unmarshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// TestControllerIdempotentJoin drives the lost-reply retransmission case:
// a node that never heard its grant asks again and must get the same
// spectrum back, not a second channel.
func TestControllerIdempotentJoin(t *testing.T) {
	c := NewController(ISM24GHz())
	first, ok := handleAt(t, c, JoinRequest{NodeID: 1, Seq: 1, DemandBps: 100e6}, 0).(AssignmentMsg)
	if !ok {
		t.Fatal("first join should be granted")
	}
	// A retransmission with a NEW sequence number (the node gave up on
	// the old exchange) still re-sends the standing grant.
	again, ok := handleAt(t, c, JoinRequest{NodeID: 1, Seq: 2, DemandBps: 100e6}, 0).(AssignmentMsg)
	if !ok {
		t.Fatal("duplicate join should be re-granted, not rejected")
	}
	if again.CenterHz != first.CenterHz || again.WidthHz != first.WidthHz {
		t.Errorf("re-grant moved the channel: %+v != %+v", again, first)
	}
	if again.Seq != 2 {
		t.Errorf("re-grant should echo the new seq, got %d", again.Seq)
	}

	// Same story for a registered sharer: the re-ask returns its
	// recorded slot.
	handleAt(t, c, JoinRequest{NodeID: 2, Seq: 1, DemandBps: 100e6}, 0)
	rej, ok := handleAt(t, c, JoinRequest{NodeID: 3, Seq: 1, DemandBps: 80e6}, 0).(RejectMsg)
	if !ok {
		t.Fatal("full band should reject into SDM")
	}
	handleAt(t, c, ShareConfirmMsg{NodeID: 3, Seq: 2, ShareHz: first.CenterHz, WidthHz: 100e6, Harmonic: rej.Harmonic}, 0)
	rere, ok := handleAt(t, c, JoinRequest{NodeID: 3, Seq: 3, DemandBps: 80e6}, 0).(RejectMsg)
	if !ok {
		t.Fatal("sharer re-join should re-reject")
	}
	if rere.ShareHz != first.CenterHz || rere.Harmonic != rej.Harmonic {
		t.Errorf("sharer re-join lost its recorded slot: %+v", rere)
	}
}

// TestControllerSeqDedup verifies the exact-duplicate suppression cache:
// the same (node, seq) retransmitted returns a byte-identical copy of the
// original reply without re-executing the request.
func TestControllerSeqDedup(t *testing.T) {
	c := NewController(ISM24GHz())
	req, _ := Marshal(JoinRequest{NodeID: 7, Seq: 42, DemandBps: 50e6})
	first, err := c.HandleAtAppend(nil, req, 0)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := c.HandleAtAppend(nil, req, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, dup) {
		t.Errorf("duplicate reply differs:\n%v\n%v", first, dup)
	}
	// The cached reply is a copy, not an alias into controller state.
	dup[0] ^= 0xFF
	dup2, _ := c.HandleAtAppend(nil, req, 0.6)
	if !bytes.Equal(first, dup2) {
		t.Error("mutating a returned reply corrupted the cache")
	}
	// Seq 0 (legacy callers) bypasses the cache entirely.
	rel0, _ := Marshal(ReleaseMsg{NodeID: 7})
	if _, err := c.HandleAtAppend(nil, rel0, c.NowS()); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Holding(7); ok || len(c.Alloc.Assignments()) != 0 {
		t.Error("seq-0 release should have executed")
	}
}

// TestReplyFitsRecord: a record caches the reply in a fixed array, so
// maxReplyLen must be the longest reply the controller encodes.
func TestReplyFitsRecord(t *testing.T) {
	longest := 0
	for _, m := range []any{AssignmentMsg{}, RejectMsg{}, RenewAckMsg{}, RenewNackMsg{}, AckMsg{}} {
		longest = max(longest, len(mustMarshal(t, m)))
	}
	if longest != maxReplyLen {
		t.Errorf("longest reply is %d bytes, maxReplyLen %d", longest, maxReplyLen)
	}
}

// TestControllerLeaseExpiry drives the crash-without-Release path: a
// silent owner is expired, its spectrum reclaimed, and its surviving
// sharer promoted through the queued push.
func TestControllerLeaseExpiry(t *testing.T) {
	c := NewController(ISM24GHz())
	c.LeaseTTL = 1.0
	owner := handleAt(t, c, JoinRequest{NodeID: 1, Seq: 1, DemandBps: 200e6}, 0).(AssignmentMsg)
	handleAt(t, c, JoinRequest{NodeID: 2, Seq: 1, DemandBps: 80e6}, 0)
	handleAt(t, c, ShareConfirmMsg{NodeID: 2, Seq: 2, ShareHz: owner.CenterHz, WidthHz: 100e6, Harmonic: 2}, 0)
	if !c.HoldsLease(1) || !c.HoldsLease(2) {
		t.Fatal("both nodes should hold leases")
	}

	// The sharer keeps renewing; the owner falls silent.
	handleAt(t, c, RenewMsg{NodeID: 2, Seq: 3}, 0.8)
	if got := c.ExpireLeases(1.0); len(got) != 0 {
		t.Fatalf("nothing should expire within the TTL, got %v", got)
	}
	expired := c.ExpireLeases(1.5)
	if len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("expired = %v, want [1]", expired)
	}
	if c.HoldsLease(1) {
		t.Error("expired owner still holds a lease")
	}
	if !c.HoldsLease(2) {
		t.Error("renewing sharer lost its lease")
	}
	notes := c.TakeNotifications()
	if len(notes) != 1 {
		t.Fatalf("expiry over a live sharer should queue one promote, got %d", len(notes))
	}
	msg, _ := Unmarshal(notes[0])
	p, ok := msg.(PromoteMsg)
	if !ok || p.NodeID != 2 || p.CenterHz != owner.CenterHz {
		t.Errorf("promotion = %#v", msg)
	}
	if _, shared, ok := c.Holding(2); !ok || shared {
		t.Error("promoted sharer does not own the channel")
	}
	if err := c.AuditBooks(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerReleaseForgetsDedup: a released node's duplicate-
// suppression entry dies with its lease — no lease is left for
// ExpireLeases to find it by, so nothing else would ever drop it. A
// remembered entry answers the ID's next first request (seq 1 again on a
// fresh device) with the stale grant and allocates nothing, and the
// cache grows by one entry per ID ever seen.
func TestControllerReleaseForgetsDedup(t *testing.T) {
	c := NewController(ISM24GHz())
	join := JoinRequest{NodeID: 7, Seq: 1, DemandBps: 10e6}
	handleAt(t, c, join, 0)
	handleAt(t, c, ReleaseMsg{NodeID: 7}, 0.1) // seq 0: a crashed node struck off the books
	if _, ok := handleAt(t, c, join, 0.2).(AssignmentMsg); !ok {
		t.Fatal("rejoin after release did not draw an assignment")
	}
	if _, shared, ok := c.Holding(7); !ok || shared || len(c.Alloc.Assignments()) != 1 {
		t.Error("rejoin after release was answered from the dedup cache: nothing allocated")
	}

	// A retransmitted release re-executes instead of replaying: the same
	// ack bytes, and no second promote for the sharer left behind.
	c = NewController(ISM24GHz())
	owner := handleAt(t, c, JoinRequest{NodeID: 1, Seq: 1, DemandBps: 200e6}, 0.3).(AssignmentMsg)
	handleAt(t, c, JoinRequest{NodeID: 2, Seq: 1, DemandBps: 80e6}, 0.3)
	handleAt(t, c, ShareConfirmMsg{NodeID: 2, Seq: 2, ShareHz: owner.CenterHz, WidthHz: 100e6, Harmonic: 2}, 0.3)
	rel, _ := Marshal(ReleaseMsg{NodeID: 1, Seq: 2})
	first, err := c.HandleAtAppend(nil, rel, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.HandleAtAppend(nil, rel, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("retransmitted release drew a different ack:\n%v\n%v", first, again)
	}
	if notes := c.TakeNotifications(); len(notes) != 1 {
		t.Errorf("release sent twice queued %d promotes, want 1", len(notes))
	}

	for id := uint32(1000); id < 2000; id++ {
		handleAt(t, c, JoinRequest{NodeID: id, Seq: 1, DemandBps: 1e6}, 0.6)
		handleAt(t, c, ReleaseMsg{NodeID: id, Seq: 2}, 0.6)
	}
	if c.RecordCount() != c.LeaseCount() {
		t.Errorf("%d records kept for %d leases", c.RecordCount(), c.LeaseCount())
	}
	if err := c.AuditBooks(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerForgetsStrangers: what the AP remembers about an ID that
// never obtained a lease — the nack a stranger's renew drew, the reject of
// a join that never confirmed — is dropped after LeaseTTL of silence like
// a lease is. Kept, it is one entry per ID an unauthenticated datagram
// ever named.
func TestControllerForgetsStrangers(t *testing.T) {
	c := NewController(ISM24GHz())
	c.LeaseTTL = 1.0
	const renews, joins = 1000, 200
	for id := uint32(0); id < renews; id++ {
		if _, ok := handleAt(t, c, RenewMsg{NodeID: id, Seq: 1}, 0).(RenewNackMsg); !ok {
			t.Fatalf("stranger %d's renew was not nacked", id)
		}
	}
	for id := uint32(renews); id < renews+joins; id++ {
		// Wider than the whole band: rejected into SDM, never confirmed.
		if _, ok := handleAt(t, c, JoinRequest{NodeID: id, Seq: 1, DemandBps: 1e9}, 0).(RejectMsg); !ok {
			t.Fatalf("join %d was not rejected", id)
		}
	}
	if c.RecordCount() != renews+joins || c.LeaseCount() != 0 {
		t.Fatalf("after the flood: %d records, %d leases; want %d, 0", c.RecordCount(), c.LeaseCount(), renews+joins)
	}
	if err := c.AuditBooks(); err != nil {
		t.Fatal(err)
	}
	if expired := c.ExpireLeases(1.5); len(expired) != 0 {
		t.Errorf("ExpireLeases reported %d IDs that never held spectrum", len(expired))
	}
	if c.RecordCount() != 0 || c.LeaseCount() != 0 {
		t.Errorf("a TTL of silence later: %d records, %d leases; want none", c.RecordCount(), c.LeaseCount())
	}
	if err := c.AuditBooks(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerRejectReplaysWithinTTLOfLastContact: a leaseless record's
// TTL runs from the node's last answered request, not its first, so an
// exact retransmission of a rejected join still draws the cached reject
// byte for byte — re-executed, it would be handed the next SDM slot.
func TestControllerRejectReplaysWithinTTLOfLastContact(t *testing.T) {
	c := NewController(ISM24GHz())
	c.LeaseTTL = 1.0
	handleAt(t, c, JoinRequest{NodeID: 5, Seq: 1, DemandBps: 1e9}, 0)
	second := mustMarshal(t, JoinRequest{NodeID: 5, Seq: 2, DemandBps: 1e9})
	first, err := c.HandleAtAppend(nil, second, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if expired := c.ExpireLeases(1.5); len(expired) != 0 || c.RecordCount() != 1 {
		t.Fatalf("sweep 0.7 s after the last contact: expired %v, %d records; want none, 1", expired, c.RecordCount())
	}
	again, err := c.HandleAtAppend(nil, second, 1.6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Errorf("retransmitted join re-executed:\n%v\n%v", first, again)
	}
	// The replay was not contact: the record still dates from 0.8.
	c.ExpireLeases(2.0)
	if c.RecordCount() != 0 {
		t.Errorf("%d records 1.2 s after the last answered request", c.RecordCount())
	}
}

// TestControllerRenew covers the keepalive ack for owners and sharers —
// whose ack carries the AP's current books so a node can re-sync — and
// the nack for unknown nodes.
func TestControllerRenew(t *testing.T) {
	c := NewController(ISM24GHz())
	owner := handleAt(t, c, JoinRequest{NodeID: 1, Seq: 1, DemandBps: 200e6}, 0).(AssignmentMsg)
	handleAt(t, c, JoinRequest{NodeID: 2, Seq: 1, DemandBps: 80e6}, 0)
	handleAt(t, c, ShareConfirmMsg{NodeID: 2, Seq: 2, ShareHz: owner.CenterHz, WidthHz: 100e6, Harmonic: -3}, 0)

	ack, ok := handleAt(t, c, RenewMsg{NodeID: 1, Seq: 2}, 0.1).(RenewAckMsg)
	if !ok {
		t.Fatal("owner renew should ack")
	}
	if ack.Shared || ack.CenterHz != owner.CenterHz || ack.WidthHz != owner.WidthHz {
		t.Errorf("owner ack books = %+v", ack)
	}
	sack, ok := handleAt(t, c, RenewMsg{NodeID: 2, Seq: 3}, 0.1).(RenewAckMsg)
	if !ok {
		t.Fatal("sharer renew should ack")
	}
	if !sack.Shared || sack.CenterHz != owner.CenterHz || sack.WidthHz != 100e6 || sack.Harmonic != -3 {
		t.Errorf("sharer ack books = %+v", sack)
	}
	if _, ok := handleAt(t, c, RenewMsg{NodeID: 9, Seq: 1}, 0.1).(RenewNackMsg); !ok {
		t.Error("unknown node renew should nack")
	}
}

// TestControllerRestart models the AP reboot: volatile books vanish, the
// band survives, renews are nacked, and rejoining from scratch
// works.
func TestControllerRestart(t *testing.T) {
	c := NewController(ISM24GHz())
	c.LeaseTTL = 1.0
	owner := handleAt(t, c, JoinRequest{NodeID: 1, Seq: 1, DemandBps: 200e6}, 0).(AssignmentMsg)
	handleAt(t, c, JoinRequest{NodeID: 2, Seq: 1, DemandBps: 80e6}, 0)
	handleAt(t, c, ShareConfirmMsg{NodeID: 2, Seq: 2, ShareHz: owner.CenterHz, WidthHz: 100e6, Harmonic: 1}, 0)
	c.HandleAtAppend(nil, mustMarshal(t, ReleaseMsg{NodeID: 99, Seq: 1}), 0.5) // populate dedup cache

	c.Restart()
	if len(c.Alloc.Assignments()) != 0 {
		t.Error("allocations should not survive a restart")
	}
	if len(c.SharersOn(owner.CenterHz)) != 0 {
		t.Error("sharer registry should not survive a restart")
	}
	if c.HoldsLease(1) || c.HoldsLease(2) {
		t.Error("leases should not survive a restart")
	}
	if c.NowS() != 0.5 {
		t.Errorf("clock should survive a restart, got %g", c.NowS())
	}
	if _, ok := handleAt(t, c, RenewMsg{NodeID: 1, Seq: 2}, 0.6).(RenewNackMsg); !ok {
		t.Error("post-restart renew should nack")
	}
	// The same seq that was dedup-cached pre-restart must execute fresh.
	if _, ok := handleAt(t, c, JoinRequest{NodeID: 1, Seq: 1, DemandBps: 100e6}, 0.7).(AssignmentMsg); !ok {
		t.Error("rejoin after restart should be granted")
	}
	if err := c.Alloc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func mustMarshal(t *testing.T, m any) []byte {
	t.Helper()
	raw, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
