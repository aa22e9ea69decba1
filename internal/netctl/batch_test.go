package netctl

import (
	"bytes"
	"fmt"
	"net"
	"sync"
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

// runStream drives the stream through a fresh server built with cfg —
// over MemNet, or over loopback UDP with every node on one mux, so the
// stream reaches the server in the order it is sent and every reply
// shares one destination. It sends op-major (all joins, all confirms,
// ...) from a single goroutine while the worker is parked, so the
// arrival order is identical across runs and the worker then takes
// full batches, and it returns each node's concatenated reply bytes and
// the server's final counts.
func runStream(t *testing.T, ns []streamNode, cfg ServerConfig, overUDP bool) ([][]byte, ServerStats) {
	t.Helper()
	srv := NewServer(mac.NewController(mac.ISM24GHz()), NewRealClock(), cfg)
	var client func(id uint32) Transport
	if overUDP {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		conn.(*net.UDPConn).SetReadBuffer(4 << 20) //nolint:errcheck // best-effort, as mmx-apd asks
		srv.Serve(conn)
		mux, err := dialMux(conn.LocalAddr().String(), !cfg.plain)
		if err != nil {
			t.Fatal(err)
		}
		defer mux.Close() //nolint:errcheck // test teardown
		client = mux.Client
	} else {
		mn := NewMemNet(nil)
		srv.Serve(mn.ServerConn())
		client = mn.Client
	}
	stop := sync.OnceFunc(srv.Stop)
	defer stop()
	srv.mu.Lock()
	release := sync.OnceFunc(srv.mu.Unlock)
	defer release()

	trs := make([]Transport, len(ns))
	for i := range ns {
		trs[i] = client(ns[i].id)
		defer trs[i].Close() //nolint:errcheck // test teardown
	}
	junk := client(9999)
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
	sent := uint64(len(ns)*ops + 2)
	waitFor(t, func() bool { return srv.Stats().RecvDatagrams == sent }, "the server did not read the whole stream")
	release()

	got := make([][]byte, len(ns))
	for i := range ns {
		for k := 0; k < ns[i].replies; {
			frame, ok := trs[i].Recv(2.0)
			if !ok {
				t.Fatalf("%+v node %d: reply %d/%d never arrived", cfg, ns[i].id, k+1, ns[i].replies)
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
				t.Fatalf("%+v node %d: unexpected extra reply % x", cfg, ns[i].id, frame)
			}
		}
	}
	stop()
	return got, srv.Stats()
}

// TestBatchDeterminism is the batching golden test: the batched
// ingest/reply path must produce byte-identical replies to the
// single-message path for the same request stream. Run under -race in
// CI's loopback-soak job.
func TestBatchDeterminism(t *testing.T) {
	ns, wantMalformed := buildStream(40)
	single, statsSingle := runStream(t, ns, ServerConfig{batch: 1}, false)
	batched, statsBatched := runStream(t, ns, ServerConfig{}, false)
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

// TestCoalescingMatchesPlain drives the stream through a loopback
// daemon twice: coalescing runs into super-datagrams both ways, and on
// one datagram per kernel message. Every node's reply bytes must equal
// the single-message MemNet reference's in both, and so must every
// count but the syscalls and messages — while the coalescing run really
// did cut its replies into runs wherever the kernel coalesces.
func TestCoalescingMatchesPlain(t *testing.T) {
	ns, _ := buildStream(40)
	ref, refStats := runStream(t, ns, ServerConfig{batch: 1}, false)
	canCoalesce := kernelCoalesces(t)
	for _, c := range []struct {
		name string
		cfg  ServerConfig
	}{{"plain", ServerConfig{plain: true}}, {"coalescing", ServerConfig{}}} {
		got, st := runStream(t, ns, c.cfg, true)
		for i := range ns {
			if !bytes.Equal(ref[i], got[i]) {
				t.Errorf("%s: node %d replies diverge from the reference\nref: % x\ngot: % x", c.name, ns[i].id, ref[i], got[i])
			}
		}
		tr := st.Traffic
		if coalesced := canCoalesce && !c.cfg.plain; coalesced == (tr.SendMsgs == tr.SendDatagrams) || tr.SendDatagrams == 0 {
			t.Errorf("%s: %d replies left in %d messages", c.name, tr.SendDatagrams, tr.SendMsgs)
		}
		if c.cfg.plain && tr.RecvMsgs != tr.RecvDatagrams {
			t.Errorf("%s: %d requests arrived in %d messages", c.name, tr.RecvDatagrams, tr.RecvMsgs)
		}
		want := refStats
		for _, s := range []*ServerStats{&st, &want} {
			s.RecvCalls, s.RecvMsgs, s.SendCalls, s.SendMsgs = 0, 0, 0, 0
		}
		if st != want {
			t.Errorf("%s: stats %+v, reference %+v", c.name, st, want)
		}
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

// TestTruncatedDatagramMalformed: a datagram longer than any legal
// frame with a parseable header — the case a hardcoded large read buffer
// used to let through — is counted malformed, never parsed: on MemNet,
// which clips it like a kernel, and over real UDP with coalescing on and
// off, where a slot holds one whole and the kernel clips the others.
func TestTruncatedDatagramMalformed(t *testing.T) {
	renew := mac.RenewMsg{NodeID: 7, Seq: 1}.AppendTo(nil)
	sizes := []int{frameCap, frameCap + 40, 16*frameCap + 100}
	for _, c := range []struct {
		name  string
		udp   bool
		plain bool
	}{{"memnet", false, false}, {"udp-coalescing", true, false}, {"udp-plain", true, true}} {
		t.Run(c.name, func(t *testing.T) {
			srv := NewServer(mac.NewController(mac.ISM24GHz()), NewRealClock(), ServerConfig{plain: c.plain})
			var send func([]byte) error
			var recv func() ([]byte, bool)
			if c.udp {
				conn := listenUDP(t)
				conn.SetDeadline(time.Time{}) //nolint:errcheck // the server's own deadlines rule
				srv.Serve(conn)
				peer := dialUDP(t, conn)
				send = func(b []byte) error { _, err := peer.Write(b); return err }
				recv = func() ([]byte, bool) {
					peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //nolint:errcheck // open socket
					b := make([]byte, 2048)
					n, err := peer.Read(b)
					return b[:n], err == nil
				}
			} else {
				mn := NewMemNet(nil)
				srv.Serve(mn.ServerConn())
				raw := mn.Client(7)
				defer raw.Close() //nolint:errcheck // test teardown
				send = raw.Send
				recv = func() ([]byte, bool) { return raw.Recv(0.05) }
			}
			defer srv.Stop()
			for _, size := range sizes {
				over := make([]byte, size)
				copy(over, renew)
				if err := send(over); err != nil {
					t.Fatalf("send %d B: %v", size, err)
				}
			}
			waitFor(t, func() bool { return srv.Stats().Malformed == uint64(len(sizes)) },
				"oversized datagrams not counted malformed")
			if frame, ok := recv(); ok {
				t.Fatalf("an oversized datagram drew a reply: % x", frame)
			}
			if st := srv.Stats(); st.Handled != 0 {
				t.Fatalf("%d oversized datagrams handled", st.Handled)
			}
		})
	}
}

// listenUDP opens a loopback socket that closes with the test. Its
// deadline turns a lost datagram into a failure instead of a hang.
func listenUDP(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })                //nolint:errcheck // test teardown
	c.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // fresh socket
	return c
}

// dialUDP opens a plain loopback socket connected to to: no GRO, so the
// kernel hands it a super-datagram as its datagrams.
func dialUDP(t *testing.T, to *net.UDPConn) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, to.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })                //nolint:errcheck // test teardown
	c.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // fresh socket
	return c
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

// wrappedConn is a UDP socket behind a type newBatchIO does not know, as
// any net.PacketConn other than *net.UDPConn and the in-memory conn is:
// it gets the portable one-datagram-per-call I/O on every platform.
type wrappedConn struct{ *net.UDPConn }

// TestGenericIOServesWrappedConn runs the portable batch I/O under go
// test on Linux too: a daemon serving a wrapped socket carries a client
// lifecycle, one datagram per call both ways, and a wrapped connected
// socket sends with no address (the mux's case) and reads the reply.
func TestGenericIOServesWrappedConn(t *testing.T) {
	conn := wrappedConn{listenUDP(t)}
	if _, ok := newBatchIO(conn, true, new(traffic)).(*genericIO); !ok {
		t.Fatal("a wrapped socket did not get the portable I/O")
	}
	srv := NewServer(mac.NewController(mac.ISM24GHz()), NewRealClock(), ServerConfig{})
	srv.Serve(conn)
	defer srv.Stop()
	mux, err := DialMux(conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close() //nolint:errcheck // test teardown
	c := NewClient(42, 1e6, mux.Client(42), 1)
	c.Retry = testRetrier()
	defer c.Close() //nolint:errcheck // test teardown
	if _, err := c.Join(); err != nil {
		t.Fatalf("join: %v", err)
	}
	if out, _, err := c.Renew(); err != nil || out != RenewOK {
		t.Fatalf("renew: outcome=%v err=%v", out, err)
	}
	if _, err := c.Release(); err != nil {
		t.Fatalf("release: %v", err)
	}
	waitFor(t, func() bool { return srv.Stats().Handled >= 3 }, "requests not handled")
	tr := srv.Stats().Traffic
	if tr.RecvMsgs < 3 || tr.RecvCalls != tr.RecvMsgs || tr.RecvMsgs != tr.RecvDatagrams ||
		tr.SendMsgs < 3 || tr.SendCalls != tr.SendMsgs || tr.SendMsgs != tr.SendDatagrams {
		t.Errorf("traffic %+v, want one datagram per call both ways", tr)
	}

	peer := listenUDP(t)
	bio := newBatchIO(wrappedConn{dialUDP(t, peer)}, true, new(traffic))
	out := getFrame()
	out.n = copy(out.buf[:], "no address: a connected socket's write")
	if err := bio.writer(32).writeBatch([]*frame{out}); err != nil {
		t.Fatalf("write without an address: %v", err)
	}
	buf := make([]byte, frameCap)
	n, from, err := peer.ReadFrom(buf)
	if err != nil || string(buf[:n]) != string(out.bytes()) {
		t.Fatalf("peer read %q, %v", buf[:n], err)
	}
	if _, err := peer.WriteTo([]byte("reply"), from); err != nil {
		t.Fatal(err)
	}
	in := make([]*frame, 1)
	if k, err := bio.reader(32).readBatch(in); k != 1 || err != nil || string(in[0].bytes()) != "reply" {
		t.Fatalf("read %d frames, %v", k, err)
	}
}

// planned is one frame of a writer test: its bytes and its peer.
type planned struct {
	to int
	b  []byte
}

// groupedBatch builds a batch from fuzz bytes: the first picks 1–4
// interned destinations, then each pair of bytes is one frame — its
// node ID, and its destination and size. Size 3 is a runt without a
// header.
func groupedBatch(data []byte) []*frame {
	if len(data) == 0 {
		return nil
	}
	dests := make([]net.Addr, 1+int(data[0])%4)
	for i := range dests {
		dests[i] = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7000 + i}
	}
	sizes := [...]int{3, 9, 17, 35}
	var fs []*frame
	for p := data[1:]; len(p) >= 2 && len(fs) < 32; p = p[2:] {
		f := new(frame)
		f.n = sizes[p[1]>>2&3]
		f.addr = dests[int(p[1]&3)%len(dests)]
		if f.n >= 9 {
			f.buf[0] = byte(mac.MsgRenew)
			f.buf[1] = p[0]
		}
		fs = append(fs, f)
	}
	return fs
}

// frameNode is the node groupRuns orders a frame by.
func frameNode(f *frame) uint32 {
	if _, id, _, ok := mac.PeekHeader(f.bytes()); ok {
		return id
	}
	return ^uint32(0)
}

// inOrderRuns counts the runs an in-order cut makes: maximal blocks of
// adjacent frames with one destination and one size.
func inOrderRuns(fs []*frame) int {
	runs := 0
	for i, f := range fs {
		if i == 0 || f.n != fs[i-1].n || f.addr != fs[i-1].addr {
			runs++
		}
	}
	return runs
}

// naiveGroup is the grouping of a batch in which no node repeats: for
// each destination and size in order of first appearance, its frames
// in batch order.
func naiveGroup(fs []*frame) []*frame {
	type key struct {
		addr net.Addr
		n    int
	}
	var keys []key
	byKey := map[key][]*frame{}
	for _, f := range fs {
		k := key{f.addr, f.n}
		if _, seen := byKey[k]; !seen {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], f)
	}
	var out []*frame
	for _, k := range keys {
		out = append(out, byKey[k]...)
	}
	return out
}

// FuzzGroupRuns holds groupRuns to its contract on byte-built batches
// of up to 32 frames: the output is a permutation of the input, every
// node's frames keep their order, the run count never exceeds the
// in-order cut's, and when no node repeats the output is the naive
// grouping — one contiguous block per destination and size.
func FuzzGroupRuns(f *testing.F) {
	f.Add([]byte{0, 1, 0x04, 2, 0x08, 2, 0x04}) // node 2's second frame joins node 1's run only after its first
	f.Add([]byte{1, 1, 0x04, 2, 0x05, 3, 0x08, 4, 0x09, 5, 0x04, 6, 0x05})
	f.Add([]byte{3, 1, 0x00, 2, 0x04, 3, 0x00, 4, 0x0c, 5, 0x0f, 6, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := groupedBatch(data)
		out := append([]*frame(nil), in...)
		groupRuns(out)
		pos := make(map[*frame]int, len(in))
		for i, fr := range in {
			pos[fr] = i
		}
		last := map[uint32]int{}
		seen := make(map[*frame]bool, len(out))
		repeats := false
		for _, fr := range out {
			i, ok := pos[fr]
			if !ok || seen[fr] {
				t.Fatalf("output holds a frame the batch did not, or one twice")
			}
			seen[fr] = true
			id := frameNode(fr)
			if prev, seen := last[id]; seen {
				repeats = true
				if prev > i {
					t.Fatalf("node %d: frame %d left after frame %d", id, prev, i)
				}
			}
			last[id] = i
		}
		if len(out) != len(in) {
			t.Fatalf("%d frames out of %d in", len(out), len(in))
		}
		if got, was := inOrderRuns(out), inOrderRuns(in); got > was {
			t.Fatalf("%d runs after grouping, %d before", got, was)
		}
		if repeats {
			return
		}
		for i, fr := range naiveGroup(in) {
			if out[i] != fr {
				t.Fatalf("frame %d is batch frame %d, the naive grouping's is %d", i, pos[out[i]], pos[fr])
			}
		}
	})
}

// TestGroupRunsAllocatesNothing pins the grouping of a 32-frame batch,
// two destinations and two sizes alternating, at zero allocations.
func TestGroupRunsAllocatesNothing(t *testing.T) {
	data := []byte{1}
	for i := 0; i < 32; i++ {
		data = append(data, byte(i), byte(i&1|(1+i>>1&1)<<2))
	}
	batch := groupedBatch(data)
	if got := inOrderRuns(batch); got != 32 {
		t.Fatalf("the batch cuts into %d runs in order, want 32", got)
	}
	fs := make([]*frame, len(batch))
	run := func() {
		copy(fs, batch)
		groupRuns(fs)
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("grouping a batch allocates %v times, want 0", allocs)
	}
	if got := inOrderRuns(fs); got != 4 {
		t.Errorf("%d runs after grouping, want 4", got)
	}
}
