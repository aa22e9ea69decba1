package netctl

import (
	"fmt"
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

// recordingWriter keeps every frame written to it: its destination and
// a copy of its bytes, one slice per writeBatch.
type recordingWriter struct{ batches [][]planned }

func (w *recordingWriter) writeBatch(fs []*frame) error {
	var b []planned
	for _, f := range fs {
		b = append(b, planned{int(f.addr.(memAddr)), append([]byte(nil), f.bytes()...)})
	}
	w.batches = append(w.batches, b)
	return nil
}

// TestHandleBatchGroupsRepliesOnly drives handleBatch with a recording
// writer. Three hosts release, each promoting its sharer, amid the
// sharers' renews, from two peers: the replies leave grouped, one block
// per peer and size, and the three pushes follow every reply in the
// order the controller produced them — grouping them too would pull
// the second peer's push behind the first peer's two. Then node 4's
// renew and release follow node 5's release: node 4's release ack, the
// size of node 5's, must not overtake node 4's renew ack to join it.
func TestHandleBatchGroupsRepliesOnly(t *testing.T) {
	srv := NewServer(mac.NewController(mac.ISM24GHz()), NewRealClock(), ServerConfig{})
	w := &recordingWriter{}
	const peerA, peerB = 1, 2
	handle := func(reqs ...planned) []planned {
		t.Helper()
		batch := make([]*frame, len(reqs))
		for i, r := range reqs {
			batch[i] = getFrame()
			batch[i].set(r.b, memAddr(r.to))
		}
		srv.handleBatch(w, batch, nil)
		if len(w.batches) == 0 {
			t.Fatal("the batch drew no write")
		}
		out := w.batches[len(w.batches)-1]
		w.batches = nil
		return out
	}
	decode := func(p planned) any {
		t.Helper()
		msg, err := mac.Unmarshal(p.b)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	const demand = 60e6
	width := mac.BandwidthForRate(demand)
	var centers []float64
	for id := uint32(1); id <= 3; id++ {
		a, ok := decode(handle(planned{peerA, mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: demand}.AppendTo(nil)})[0]).(mac.AssignmentMsg)
		if !ok {
			t.Fatalf("owner %d was not granted a channel", id)
		}
		centers = append(centers, a.CenterHz)
	}
	sharerPeer := []int{peerA, peerB, peerA}
	for k, id := range []uint32{4, 5, 6} {
		to := sharerPeer[k]
		rej, ok := decode(handle(planned{to, mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: demand}.AppendTo(nil)})[0]).(mac.RejectMsg)
		if !ok {
			t.Fatalf("sharer %d was granted a channel of its own", id)
		}
		confirm := mac.ShareConfirmMsg{NodeID: id, Seq: 2, ShareHz: centers[k], WidthHz: width, Harmonic: rej.Harmonic}
		if _, ok := decode(handle(planned{to, confirm.AppendTo(nil)})[0]).(mac.AckMsg); !ok {
			t.Fatalf("sharer %d's confirm on host %d drew no ack", id, k+1)
		}
	}

	var reqs []planned
	for k := uint32(0); k < 3; k++ {
		host, sharer := 1+k, 4+k
		reqs = append(reqs,
			planned{peerA, mac.ReleaseMsg{NodeID: host, Seq: 2}.AppendTo(nil)},
			planned{sharerPeer[k], mac.RenewMsg{NodeID: sharer, Seq: 3}.AppendTo(nil)})
	}
	out := handle(reqs...)
	if len(out) != len(reqs)+3 {
		t.Fatalf("%d frames left for %d requests and 3 promotions", len(out), len(reqs))
	}
	replies, pushes := out[:len(reqs)], out[len(reqs):]
	blocks := map[[2]int]bool{}
	for i, p := range replies {
		if _, _, _, ok := mac.PeekHeader(p.b); !ok || mac.MsgType(p.b[0]) == mac.MsgPromote {
			t.Fatalf("frame %d of %d, % x, is not a reply", i, len(out), p.b)
		}
		k := [2]int{p.to, len(p.b)}
		if i > 0 && k != [2]int{replies[i-1].to, len(replies[i-1].b)} && blocks[k] {
			t.Errorf("the replies to peer %d of %d B are not one block", p.to, len(p.b))
		}
		blocks[k] = true
	}
	for k, p := range pushes {
		push, ok := decode(p).(mac.PromoteMsg)
		if want := uint32(4 + k); !ok || push.NodeID != want || p.to != sharerPeer[k] {
			t.Fatalf("push %d is % x to peer %d, want node %d's promotion to peer %d", k, p.b, p.to, want, sharerPeer[k])
		}
	}

	out = handle(
		planned{peerA, mac.ReleaseMsg{NodeID: 5, Seq: 4}.AppendTo(nil)},
		planned{peerA, mac.RenewMsg{NodeID: 4, Seq: 4}.AppendTo(nil)},
		planned{peerA, mac.ReleaseMsg{NodeID: 4, Seq: 5}.AppendTo(nil)})
	var got []string
	for _, p := range out {
		switch m := decode(p).(type) {
		case mac.AckMsg:
			got = append(got, fmt.Sprintf("ack %d", m.NodeID))
		case mac.RenewAckMsg:
			got = append(got, fmt.Sprintf("renew-ack %d", m.NodeID))
		default:
			got = append(got, fmt.Sprintf("%T", m))
		}
	}
	if want := "[ack 5 renew-ack 4 ack 4]"; fmt.Sprint(got) != want {
		t.Errorf("replies %v, want %s", got, want)
	}
}
