package netctl

import (
	"sync"
	"testing"
	"time"

	"mmx/internal/mac"
)

// stallWorker takes the server's controller lock and parks the worker on
// it with exactly one frame in hand: a renew from node id, sent while the
// worker is idle. The returned release unlocks at most once: deferred
// after Stop, it lets the worker go before Stop waits for it to drain.
func stallWorker(t *testing.T, mn *MemNet, srv *Server, id uint32) (Transport, func()) {
	t.Helper()
	srv.mu.Lock()
	release := sync.OnceFunc(srv.mu.Unlock)
	tr := mn.Client(id)
	if err := tr.Send(mac.RenewMsg{NodeID: id, Seq: 1}.AppendTo(nil)); err != nil {
		release()
		t.Fatal(err)
	}
	// Once neither the network nor the queue holds the frame, the reader
	// has handed it on (give it a moment to finish) and the worker holds it.
	deadline := time.Now().Add(2 * time.Second)
	for len(mn.toSrv) != 0 || len(srv.queue) != 0 {
		if time.Now().After(deadline) {
			release()
			t.Fatal("the worker never took the stalling frame")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	return tr, release
}

// TestServerShedsWhenQueueFull: with the worker stalled, the ingress
// queue takes exactly queueLen frames and every one past it draws the
// shed sentinel at once, addressed with its request's node and seq —
// the daemon sheds rather than queues.
func TestServerShedsWhenQueueFull(t *testing.T) {
	mn, srv := startServer(nil, NewRealClock(), 0)
	defer srv.Stop()
	stall, release := stallWorker(t, mn, srv, 1)
	defer release()

	const k = 7
	trs := make([]Transport, queueLen+k)
	for i := range trs {
		id := uint32(i + 2)
		trs[i] = mn.Client(id)
		if err := trs[i].Send(mac.RenewMsg{NodeID: id, Seq: 3 * id}.AppendTo(nil)); err != nil {
			t.Fatal(err)
		}
		// MemNet's own ingress drops silently past 1 024 frames: let the
		// reader drain it every 512 so every drop is the server's.
		if (i+1)%512 == 0 || i == len(trs)-1 {
			waitFor(t, func() bool { return len(mn.toSrv) == 0 }, "the reader stopped draining the network")
		}
	}
	waitFor(t, func() bool { return len(srv.queue) == queueLen && srv.Stats().Shed >= k },
		"the queue never filled, or the overflow was not shed")
	release()
	waitFor(t, func() bool { return srv.Stats().Handled == queueLen+1 },
		"the worker did not handle the stalled frame and the full queue")

	if _, ok := stall.Recv(2); !ok {
		t.Fatal("the stalled frame drew no reply")
	}
	sheds := 0
	for i, tr := range trs {
		raw, ok := tr.Recv(2)
		if !ok {
			t.Fatalf("frame %d drew no reply", i)
		}
		msg, err := mac.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		rej, ok := msg.(mac.RejectMsg)
		if !ok || !IsShedReply(rej) {
			continue
		}
		sheds++
		if id := uint32(i + 2); rej.NodeID != id || rej.Seq != 3*id {
			t.Errorf("shed reply (node %d, seq %d) answers node %d's seq %d", rej.NodeID, rej.Seq, id, 3*id)
		}
	}
	if sheds != k {
		t.Errorf("%d shed replies, want %d", sheds, k)
	}
	if st := srv.Stats(); st.Shed != k || st.Handled != queueLen+1 {
		t.Errorf("stats shed=%d handled=%d, want %d and %d", st.Shed, st.Handled, k, queueLen+1)
	}
}

// TestRepliesLeaveBeforePushes: a sharer's renew and its host's release
// handled in one batch. The controller answers the renew before the
// release promotes the sharer, so the sharer must read the renew ack
// and then the PromoteMsg — the other order would resync it back onto
// the share it just lost — and end up holding what the books say.
func TestRepliesLeaveBeforePushes(t *testing.T) {
	mn, srv := startServer(nil, NewRealClock(), 0)
	defer srv.Stop()

	owners := make([]*Client, 3)
	for i := range owners {
		owners[i] = newTestClient(mn, uint32(i+1), 60e6)
		if _, err := owners[i].Join(); err != nil {
			t.Fatalf("owner %d join: %v", i+1, err)
		}
	}
	sharer := newTestClient(mn, 4, 60e6)
	if _, err := sharer.Join(); err != nil || !sharer.Shared {
		t.Fatalf("sharer join: shared=%v err=%v", sharer.Shared, err)
	}
	var host *Client
	for _, o := range owners {
		if o.Assignment.CenterHz == sharer.Assignment.CenterHz {
			host = o
		}
	}
	if host == nil {
		t.Fatalf("no owner on the sharer's host channel %v", sharer.Assignment.CenterHz)
	}

	_, release := stallWorker(t, mn, srv, 99)
	defer release()
	renew := mac.RenewMsg{NodeID: sharer.ID, Seq: sharer.seq + 1}
	if err := sharer.T.Send(renew.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	if err := host.T.Send(mac.ReleaseMsg{NodeID: host.ID, Seq: host.seq + 1}.AppendTo(nil)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(srv.queue) == 2 }, "renew and release not queued together")
	release()

	recv := func(what string) any {
		raw, ok := sharer.T.Recv(2)
		if !ok {
			t.Fatalf("sharer never received the %s", what)
		}
		msg, err := mac.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	ack, ok := recv("renew ack").(mac.RenewAckMsg)
	if !ok || ack.Seq != renew.Seq {
		t.Fatalf("sharer's first frame is not its renew ack: %+v", ack)
	}
	push, ok := recv("promote push").(mac.PromoteMsg)
	if !ok || push.NodeID != sharer.ID {
		t.Fatalf("sharer's second frame is not its promote push: %+v", push)
	}

	// Feed both frames to the sharer's session in arrival order.
	replay := func([]byte) (any, float64, error) { return ack, 0, nil }
	if out, _, err := sharer.Session.Renew(replay, nil); err != nil || out != RenewOK {
		t.Fatalf("renew ack: outcome %v err %v", out, err)
	}
	sharer.ApplyPromote(push)

	srv.mu.Lock()
	a, shared, held := srv.ctrl.Holding(sharer.ID)
	srv.mu.Unlock()
	if !held || shared || sharer.Shared || sharer.Assignment != a {
		t.Fatalf("sharer holds %+v shared=%v, books say %+v shared=%v held=%v",
			sharer.Assignment, sharer.Shared, a, shared, held)
	}
}
