package netctl

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"mmx/internal/mac"
)

// streamNode is one virtual node's slice of the determinism stream: the
// raw requests it sends (in order) and how many replies it should draw.
type streamNode struct {
	id      uint32
	reqs    [][]byte
	replies int
}

// buildStream scripts a deterministic mixed workload: joins (FDM grants
// and, once the band fills, SDM rejects), share confirms, renews, exact
// duplicate retransmissions (dup-cache replays), releases, and a few
// frames the server must refuse. The same byte stream fed to any
// correct server in the same arrival order must produce byte-identical
// per-node reply streams.
func buildStream(nodes int) ([]streamNode, int) {
	band := mac.ISM24GHz()
	ns := make([]streamNode, nodes)
	mustMarshal := func(msg any) []byte {
		raw, err := mac.Marshal(msg)
		if err != nil {
			panic(err)
		}
		return raw
	}
	for i := range ns {
		id := uint32(i + 1)
		// Demand is large enough that a few dozen nodes exhaust the
		// band, forcing the later joins down the SDM reject path.
		join := mustMarshal(mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: 2e8})
		confirm := mustMarshal(mac.ShareConfirmMsg{
			NodeID: id, Seq: 2, ShareHz: band.LowHz + 1e8, WidthHz: 5e7, Harmonic: 1,
		})
		renew := mustMarshal(mac.RenewMsg{NodeID: id, Seq: 3})
		release := mustMarshal(mac.ReleaseMsg{NodeID: id, Seq: 4})
		ns[i] = streamNode{
			id: id,
			// renew appears twice: the second is an exact retransmission
			// that must replay the dup-cached reply byte-for-byte.
			reqs:    [][]byte{join, confirm, renew, renew, release},
			replies: 5,
		}
	}
	// Frames the server must drop without a reply: a runt and an
	// oversized (kernel-truncated-sized) datagram with a valid header.
	malformed := 2
	return ns, malformed
}

// runStream drives the stream through a fresh server at the given batch
// size — op-major order (all joins, all confirms, ...) from a single
// goroutine, so the arrival order at the server's queue is identical
// across runs — and returns each node's concatenated reply bytes.
func runStream(t *testing.T, batch int, ns []streamNode) ([][]byte, ServerStats) {
	t.Helper()
	mn := NewMemNet(nil)
	ctrl := mac.NewController(mac.ISM24GHz())
	srv := NewServer(ctrl, NewRealClock(), ServerConfig{Batch: batch})
	srv.Serve(mn.ServerConn())
	defer srv.Stop()

	trs := make([]Transport, len(ns))
	for i := range ns {
		trs[i] = mn.Client(ns[i].id)
		defer trs[i].Close() //nolint:errcheck // test teardown
	}
	junk := mn.Client(9999)
	defer junk.Close() //nolint:errcheck // test teardown

	ops := len(ns[0].reqs)
	for op := 0; op < ops; op++ {
		for i := range ns {
			if err := trs[i].Send(ns[i].reqs[op]); err != nil {
				t.Fatalf("send op %d node %d: %v", op, ns[i].id, err)
			}
		}
		if op == 0 {
			// Mix the refusable frames in behind the joins.
			if err := junk.Send([]byte{0x01, 2, 3}); err != nil {
				t.Fatalf("send runt: %v", err)
			}
			over := make([]byte, frameCap)
			over[0] = byte(mac.MsgRenew)
			if err := junk.Send(over); err != nil {
				t.Fatalf("send oversized: %v", err)
			}
		}
	}

	got := make([][]byte, len(ns))
	for i := range ns {
		for k := 0; k < ns[i].replies; {
			frame, ok := trs[i].Recv(2.0)
			if !ok {
				t.Fatalf("batch=%d node %d: reply %d/%d never arrived",
					batch, ns[i].id, k+1, ns[i].replies)
			}
			if mac.MsgType(frame[0]) == mac.MsgPromote {
				// Unsolicited push: its interleaving with replies is
				// timing-dependent by design; only the solicited reply
				// stream is the determinism contract.
				continue
			}
			got[i] = append(got[i], frame...)
			k++
		}
	}
	// Every solicited reply is in, so anything else queued for a node must
	// be a promote. The drain shares one 20 ms deadline across the nodes;
	// past it, a short floor still lets a queued frame win Recv's select.
	deadline := time.Now().Add(20 * time.Millisecond)
	for i := range ns {
		for {
			wait := time.Until(deadline).Seconds()
			if wait < 1e-4 {
				wait = 1e-4
			}
			frame, ok := trs[i].Recv(wait)
			if !ok {
				break
			}
			if mac.MsgType(frame[0]) != mac.MsgPromote {
				t.Fatalf("batch=%d node %d: unexpected extra reply % x", batch, ns[i].id, frame)
			}
		}
	}
	return got, srv.Stats()
}

// TestBatchDeterminism is the batching golden test: the batched
// ingest/reply path must produce byte-identical replies to the
// single-message path for the same request stream. Run under -race in
// CI's loopback-soak job.
func TestBatchDeterminism(t *testing.T) {
	ns, wantMalformed := buildStream(40)
	single, statsSingle := runStream(t, 1, ns)
	batched, statsBatched := runStream(t, 32, ns)
	for i := range ns {
		if !bytes.Equal(single[i], batched[i]) {
			t.Errorf("node %d: batched replies diverge from single-message path\nsingle:  % x\nbatched: % x",
				ns[i].id, single[i], batched[i])
		}
	}
	if statsSingle.Handled != statsBatched.Handled {
		t.Errorf("handled diverges: single=%d batched=%d", statsSingle.Handled, statsBatched.Handled)
	}
	if statsSingle.Malformed != uint64(wantMalformed) || statsBatched.Malformed != uint64(wantMalformed) {
		t.Errorf("malformed counts: single=%d batched=%d want %d",
			statsSingle.Malformed, statsBatched.Malformed, wantMalformed)
	}
}

// TestServerEvictsAddrs is the last-seen-address leak regression: the
// table must shrink on release and on lease expiry, not only grow — a
// churning fleet would otherwise grow it without bound.
func TestServerEvictsAddrs(t *testing.T) {
	clock := &FakeClock{}
	mn, srv := startServer(nil, clock, 5)
	defer srv.Stop()

	const n = 12
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = newTestClient(mn, uint32(i+1), 1e6)
		if _, err := clients[i].Join(); err != nil {
			t.Fatalf("join %d: %v", i+1, err)
		}
	}
	waitFor(t, func() bool { return srv.AddrCount() == n },
		fmt.Sprintf("address table should hold %d nodes after joins (have %d)", n, srv.AddrCount()))

	for i := 0; i < n/2; i++ {
		if _, err := clients[i].Release(); err != nil {
			t.Fatalf("release %d: %v", i+1, err)
		}
	}
	waitFor(t, func() bool { return srv.AddrCount() == n/2 },
		"released nodes must be evicted from the address table")

	clock.Advance(60)
	srv.ExpireNow()
	waitFor(t, func() bool { return srv.AddrCount() == 0 },
		"expired nodes must be evicted from the address table")
	if got := srv.LeaseCount(); got != 0 {
		t.Fatalf("leases after expiry: %d", got)
	}
	for i := n / 2; i < n; i++ {
		clients[i].Joined = false // lease expired server-side; skip release
	}
}

// TestServerForgetsStrangers: datagrams that leave their sender without a
// lease — renews the AP nacks, joins it rejects and that never confirm —
// intern no address, and the records their answers leave in the controller
// go after one TTL of silence. Both tables are otherwise one entry per ID
// an unauthenticated datagram ever named.
func TestServerForgetsStrangers(t *testing.T) {
	clock := &FakeClock{}
	mn, srv := startServer(nil, clock, 1.0)
	defer srv.Stop()

	const n = 200
	for id := uint32(1); id <= n; id++ {
		var req []byte
		if id%4 == 0 {
			// Wider than the whole band: rejected into SDM, never confirmed.
			req = mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: 1e9}.AppendTo(nil)
		} else {
			req = mac.RenewMsg{NodeID: id, Seq: 1}.AppendTo(nil)
		}
		tr := mn.Client(id)
		if err := tr.Send(req); err != nil {
			t.Fatal(err)
		}
		reply, ok := tr.Recv(2)
		if !ok {
			t.Fatalf("stranger %d drew no reply", id)
		}
		if typ := mac.MsgType(reply[0]); typ != mac.MsgRenewNack && typ != mac.MsgReject {
			t.Fatalf("stranger %d drew reply type %d", id, typ)
		}
	}
	if got := srv.RecordCount(); got != n {
		t.Fatalf("%d records after %d answered strangers", got, n)
	}
	if got := srv.AddrCount(); got != 0 {
		t.Errorf("%d addresses interned for nodes that hold no lease", got)
	}
	clock.Advance(2)
	if expired := srv.ExpireNow(); len(expired) != 0 {
		t.Errorf("sweep reported %d expired leases; nobody held one", len(expired))
	}
	if r, a, l := srv.RecordCount(), srv.AddrCount(), srv.LeaseCount(); r != 0 || a != 0 || l != 0 {
		t.Errorf("a TTL of silence later: records=%d addrs=%d leases=%d, want all zero", r, a, l)
	}
	if err := srv.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedDatagramMalformed: the read buffer is MaxFrameLen+1, so
// a datagram the kernel (or mem link) clips arrives longer than any
// legal frame and must be counted malformed, never parsed.
func TestTruncatedDatagramMalformed(t *testing.T) {
	mn, srv := startServer(nil, NewRealClock(), 0)
	defer srv.Stop()

	raw := mn.Client(7)
	defer raw.Close() //nolint:errcheck // test teardown
	// A would-be-valid renew padded past the frame cap: after clipping
	// it still opens with a parseable header, which is exactly the case
	// a hardcoded large read buffer used to let through.
	over := make([]byte, frameCap+40)
	renew, err := mac.Marshal(mac.RenewMsg{NodeID: 7, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	copy(over, renew)
	if err := raw.Send(over); err != nil {
		t.Fatalf("send oversized: %v", err)
	}
	waitFor(t, func() bool { return srv.Stats().Malformed == 1 },
		"truncated datagram not counted malformed")
	if frame, ok := raw.Recv(0.05); ok {
		t.Fatalf("truncated datagram drew a reply: % x", frame)
	}
	if srv.Stats().Handled != 0 {
		t.Fatalf("truncated datagram was handled")
	}
}

// TestUDPLoopbackRoundtrip drives the full client lifecycle through a
// real UDP socket, one client on its own Mux — on Linux this exercises
// the recvmmsg/sendmmsg batch transport end to end on both sides,
// including address interning and the raw sockaddr echo on the reply
// path.
func TestUDPLoopbackRoundtrip(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctrl := mac.NewController(mac.ISM24GHz())
	srv := NewServer(ctrl, NewRealClock(), ServerConfig{})
	srv.Serve(conn)
	defer srv.Stop()

	mux, err := DialMux(conn.LocalAddr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer mux.Close() //nolint:errcheck // test teardown
	c := NewClient(42, 1e6, mux.Client(42), 1)
	c.Retry = testRetrier()
	defer c.Close() //nolint:errcheck // test teardown

	if _, err := c.Join(); err != nil {
		t.Fatalf("join over UDP: %v", err)
	}
	if out, _, err := c.Renew(); err != nil || out != RenewOK {
		t.Fatalf("renew over UDP: outcome=%v err=%v", out, err)
	}
	if _, err := c.Release(); err != nil {
		t.Fatalf("release over UDP: %v", err)
	}
	waitFor(t, func() bool { return srv.Stats().Handled >= 3 }, "UDP requests not handled")
	waitFor(t, func() bool { return srv.AddrCount() == 0 }, "release must evict the UDP address")
	if err := srv.Audit(); err != nil {
		t.Fatalf("books after UDP lifecycle: %v", err)
	}
}
