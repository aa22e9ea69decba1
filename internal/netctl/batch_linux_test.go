//go:build linux && (amd64 || arm64)

package netctl

import (
	"bytes"
	"encoding/binary"
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"mmx/internal/mac"
)

// sendRun sends payload from a connected socket as one super-datagram
// of seg-byte segments.
func sendRun(t *testing.T, c *net.UDPConn, payload []byte, seg int) {
	t.Helper()
	oob := make([]byte, syscall.CmsgSpace(2))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
	h.Level, h.Type = solUDP, udpSegment
	h.SetLen(syscall.CmsgLen(2))
	binary.NativeEndian.PutUint16(oob[syscall.SizeofCmsghdr:], uint16(seg))
	if _, _, err := c.WriteMsgUDP(payload, oob, nil); err != nil {
		t.Fatalf("segmented send: %v", err)
	}
}

// readN reads n datagrams, at most per a call.
func readN(t *testing.T, r batchReader, n, per int) []*frame {
	t.Helper()
	var out []*frame
	fs := make([]*frame, per)
	for len(out) < n {
		k, err := r.readBatch(fs[:min(per, n-len(out))])
		if err != nil {
			t.Fatalf("read %d/%d: %v", len(out), n, err)
		}
		out = append(out, fs[:k]...)
		clear(fs[:k])
	}
	return out
}

// coalescingIO returns a socket's batch I/O with coalescing on and its
// reader; the test skips on a kernel without UDP_GRO.
func coalescingIO(t *testing.T, c *net.UDPConn, tr *traffic) (*udpBatchIO, batchReader) {
	t.Helper()
	u := newUDPBatchIO(c, true, tr).(*udpBatchIO)
	r := u.reader(32)
	if r.(*mmsgReader).ctrls == nil {
		t.Skip("the kernel refused UDP_GRO")
	}
	return u, r
}

// kernelCoalesces reports whether a loopback socket here takes UDP_GRO,
// and so sends and reads runs as super-datagrams.
func kernelCoalesces(t *testing.T) bool {
	return newUDPBatchIO(listenUDP(t), true, new(traffic)).(*udpBatchIO).setGRO()
}

// TestGROReaderClipsOversizedRun: a run of 20 segments of 60 B is
// 1 200 B, more than a GRO slot holds. The reader hands out the 17 whole
// segments in order, across calls of 5, then one datagram that reads as
// malformed for the clipped rest — once, all from one message.
func TestGROReaderClipsOversizedRun(t *testing.T) {
	rx := listenUDP(t)
	var tr traffic
	_, r := coalescingIO(t, rx, &tr)
	const seg, segs = 60, 20
	payload := make([]byte, seg*segs)
	for i := range payload {
		payload[i] = byte(i/seg + 1)
	}
	sendRun(t, dialUDP(t, rx), payload, seg)
	fs := readN(t, r, 18, 5)
	for i, f := range fs[:17] {
		if !bytes.Equal(f.bytes(), payload[i*seg:(i+1)*seg]) {
			t.Errorf("segment %d reads % x", i, f.bytes())
		}
	}
	if fs[17].n <= mac.MaxFrameLen {
		t.Errorf("the clipped rest reads as a %d B datagram, want one past mac.MaxFrameLen", fs[17].n)
	}
	if got := tr.load(); got.RecvMsgs != 1 || got.RecvDatagrams != 18 {
		t.Errorf("%d messages, %d datagrams; want 1 and 18", got.RecvMsgs, got.RecvDatagrams)
	}
	rx.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck // open socket
	if n, err := r.readBatch(make([]*frame, 4)); n != 0 || err == nil {
		t.Errorf("a further read returned %d datagrams (err %v); the run is spent", n, err)
	}
}

// TestServerCountsClippedRunOnce: 45 strangers' share confirms of 26 B
// arrive as one super-datagram longer than a GRO slot, which holds 40 of
// them exactly. The coalescing daemon answers those 40 and counts the
// clipped rest as one malformed; a daemon without GRO gets the 45
// datagrams from the kernel one by one and answers them all.
func TestServerCountsClippedRunOnce(t *testing.T) {
	for _, c := range []struct {
		name                    string
		plain                   bool
		wantHandled, wantMalfmd uint64
	}{{"coalescing", false, 40, 1}, {"plain", true, 45, 0}} {
		t.Run(c.name, func(t *testing.T) {
			conn := listenUDP(t)
			conn.SetDeadline(time.Time{}) //nolint:errcheck // the server's own deadlines rule
			srv := NewServer(mac.NewController(mac.ISM24GHz()), NewRealClock(), ServerConfig{plain: c.plain})
			srv.Serve(conn)
			defer srv.Stop()
			var payload []byte
			for id := uint32(1); id <= 45; id++ {
				payload = mac.ShareConfirmMsg{NodeID: id, Seq: 2, ShareHz: 24.1e9, WidthHz: 1e6}.AppendTo(payload)
			}
			seg := len(payload) / 45
			if seg*40 != maxSegs*frameCap {
				t.Fatalf("40 share confirms are %d B, a slot %d", seg*40, maxSegs*frameCap)
			}
			sendRun(t, dialUDP(t, conn), payload, seg)
			waitFor(t, func() bool { st := srv.Stats(); return st.Handled+st.Malformed == c.wantHandled+c.wantMalfmd },
				"the run was not all counted")
			time.Sleep(20 * time.Millisecond)
			if st := srv.Stats(); st.Handled != c.wantHandled || st.Malformed != c.wantMalfmd {
				t.Errorf("handled %d malformed %d, want %d and %d", st.Handled, st.Malformed, c.wantHandled, c.wantMalfmd)
			}
		})
	}
}

// internPeers has each peer send one byte to the socket r reads, and
// returns the addresses r interned for them, in order.
func internPeers(t *testing.T, r batchReader, peers ...*net.UDPConn) []net.Addr {
	t.Helper()
	addrs := make([]net.Addr, len(peers))
	for i, p := range peers {
		if _, err := p.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		f := readN(t, r, 1, 1)[0]
		addrs[i] = f.addr
		putFrame(f)
	}
	return addrs
}

// writePlan sends plan through w in one writeBatch, addressed to addrs.
func writePlan(t *testing.T, w batchWriter, addrs []net.Addr, plan []planned) {
	t.Helper()
	fs := make([]*frame, len(plan))
	for i, p := range plan {
		fs[i] = getFrame()
		fs[i].set(p.b, addrs[p.to])
	}
	if err := w.writeBatch(fs); err != nil {
		t.Fatalf("write: %v", err)
	}
	for _, f := range fs {
		putFrame(f)
	}
}

// expectPlan reads every peer's datagrams and compares them, in order,
// with the frames plan addressed to it.
func expectPlan(t *testing.T, peers []*net.UDPConn, plan []planned) {
	t.Helper()
	buf := make([]byte, 2048)
	for i, p := range peers {
		for k, want := range plan {
			if want.to != i {
				continue
			}
			n, err := p.Read(buf)
			if err != nil {
				t.Fatalf("peer %d, frame %d: %v", i, k, err)
			}
			if !bytes.Equal(buf[:n], want.b) {
				t.Fatalf("peer %d read % x where frame %d, % x, was due", i, buf[:n], k, want.b)
			}
		}
	}
}

// mixedPlan is a reply batch as the worker writes one: grants, renew
// acks, a release ack and promote pushes to two peers, then a run longer
// than maxSegs. Its cuts: [grant grant]→0, [ack]→0, [ack ack]→1,
// [release ack]→1, [promote promote]→0, 16 and 4 acks→1.
func mixedPlan() (plan []planned, msgs int) {
	ack := func(to int, id uint32) planned {
		return planned{to, mac.RenewAckMsg{NodeID: id, Seq: 2, CenterHz: 24.1e9, WidthHz: 1e6}.AppendTo(nil)}
	}
	plan = []planned{
		{0, mac.AssignmentMsg{NodeID: 1, Seq: 1, CenterHz: 24.1e9, WidthHz: 1e6}.AppendTo(nil)},
		{0, mac.AssignmentMsg{NodeID: 2, Seq: 1, CenterHz: 24.2e9, WidthHz: 1e6}.AppendTo(nil)},
		ack(0, 3), ack(1, 4), ack(1, 5),
		{1, mac.AckMsg{NodeID: 6, Seq: 4}.AppendTo(nil)},
		{0, mac.PromoteMsg{NodeID: 1, CenterHz: 24.1e9, WidthHz: 1e6}.AppendTo(nil)},
		{0, mac.PromoteMsg{NodeID: 2, CenterHz: 24.2e9, WidthHz: 1e6}.AppendTo(nil)},
	}
	for id := uint32(10); id < 30; id++ {
		plan = append(plan, ack(1, id))
	}
	return plan, 7
}

// TestGSOWriterSplitsRuns: one batch that mixes sizes and destinations
// leaves as one sendmmsg whose messages cut at every change of peer or
// size and after maxSegs frames, and each peer reads its frames in the
// order they were written — replies before the pushes behind them, as
// TestRepliesLeaveBeforePushes needs per destination.
func TestGSOWriterSplitsRuns(t *testing.T) {
	conn := listenUDP(t)
	var tr traffic
	u, r := coalescingIO(t, conn, &tr)
	peers := []*net.UDPConn{dialUDP(t, conn), dialUDP(t, conn)}
	addrs := internPeers(t, r, peers...)
	plan, msgs := mixedPlan()
	writePlan(t, u.writer(32), addrs, plan)
	if got := tr.load(); got.SendCalls != 1 || got.SendMsgs != uint64(msgs) || got.SendDatagrams != uint64(len(plan)) {
		t.Errorf("%d calls, %d messages, %d datagrams; want 1, %d, %d",
			got.SendCalls, got.SendMsgs, got.SendDatagrams, msgs, len(plan))
	}
	expectPlan(t, peers, plan)
}

// TestGSOWriterSendsGroupedRuns: 32 replies alternating two peers and
// two sizes cut into 32 messages in order, and into 4 once grouped —
// each peer still reads every node's reply, in the grouped order.
func TestGSOWriterSendsGroupedRuns(t *testing.T) {
	conn := listenUDP(t)
	var tr traffic
	u, r := coalescingIO(t, conn, &tr)
	peers := []*net.UDPConn{dialUDP(t, conn), dialUDP(t, conn)}
	addrs := internPeers(t, r, peers...)
	w := u.writer(32)
	var plan []planned
	for id := uint32(1); id <= 32; id++ {
		to := int(id & 1)
		if id>>1&1 == 0 {
			plan = append(plan, planned{to, mac.AckMsg{NodeID: id, Seq: 4}.AppendTo(nil)})
		} else {
			plan = append(plan, planned{to, mac.RenewAckMsg{NodeID: id, Seq: 2, CenterHz: 24.1e9, WidthHz: 1e6}.AppendTo(nil)})
		}
	}
	for _, grouped := range []bool{false, true} {
		fs := make([]*frame, len(plan))
		at := make(map[*frame]planned, len(plan))
		for i, p := range plan {
			fs[i] = new(frame)
			fs[i].set(p.b, addrs[p.to])
			at[fs[i]] = p
		}
		want := uint64(32)
		if grouped {
			groupRuns(fs)
			want = 4
		}
		sent := make([]planned, len(fs))
		for i, f := range fs {
			sent[i] = at[f]
		}
		before := tr.load()
		if err := w.writeBatch(fs); err != nil {
			t.Fatalf("write: %v", err)
		}
		if got := tr.load(); got.SendMsgs-before.SendMsgs != want || got.SendDatagrams-before.SendDatagrams != 32 {
			t.Errorf("grouped %v: 32 frames left as %d datagrams in %d messages, want %d messages",
				grouped, got.SendDatagrams-before.SendDatagrams, got.SendMsgs-before.SendMsgs, want)
		}
		expectPlan(t, peers, sent)
	}
}

// TestWriterFallsBackWhenRefused: with SO_NO_CHECK set the kernel
// refuses every segmented send (EINVAL), as one without UDP GSO does.
// The refused run goes again as singles, nothing is lost or reordered,
// and the socket sends one datagram per message from then on.
func TestWriterFallsBackWhenRefused(t *testing.T) {
	conn := listenUDP(t)
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	rc.Control(func(fd uintptr) { //nolint:errcheck // open socket
		err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	var tr traffic
	u, r := coalescingIO(t, conn, &tr)
	peers := []*net.UDPConn{dialUDP(t, conn), dialUDP(t, conn)}
	addrs := internPeers(t, r, peers...)
	w := u.writer(32)
	plan, _ := mixedPlan()
	writePlan(t, w, addrs, plan)
	if u.gso.Load() {
		t.Fatal("the socket still segments after the kernel refused a run")
	}
	expectPlan(t, peers, plan)
	writePlan(t, w, addrs, plan)
	expectPlan(t, peers, plan)
	n := uint64(2 * len(plan))
	if got := tr.load(); got.SendCalls != 3 || got.SendMsgs != n || got.SendDatagrams != n {
		t.Errorf("%d calls, %d messages, %d datagrams; want 3 (one refused), %d, %d",
			got.SendCalls, got.SendMsgs, got.SendDatagrams, n, n)
	}
}

// TestReaderWithoutGRO: a kernel that refuses UDP_GRO leaves the socket
// reading one datagram per message into 32 plain slots of frameCap —
// a run a peer sends as one super-datagram arrives as its datagrams —
// and sending one per message too.
func TestReaderWithoutGRO(t *testing.T) {
	conn := listenUDP(t)
	saved := setsockoptInt
	setsockoptInt = func(fd, level, opt, value int) error {
		if level == solUDP && opt == udpGRO {
			return syscall.ENOPROTOOPT
		}
		return saved(fd, level, opt, value)
	}
	var tr traffic
	u := newUDPBatchIO(conn, true, &tr).(*udpBatchIO)
	r := u.reader(32).(*mmsgReader)
	setsockoptInt = saved
	if u.gso.Load() {
		t.Fatal("the socket still segments after the kernel refused UDP_GRO")
	}
	if len(r.hdrs) != 32 || r.slot != frameCap || r.ctrls != nil {
		t.Fatalf("%d slots of %d B (control buffers %v), want 32 plain slots of %d B", len(r.hdrs), r.slot, r.ctrls != nil, frameCap)
	}
	const seg, segs = 40, 5
	payload := make([]byte, seg*segs)
	for i := range payload {
		payload[i] = byte(i/seg + 1)
	}
	sendRun(t, dialUDP(t, conn), payload, seg)
	for i, f := range readN(t, r, segs, 32) {
		if !bytes.Equal(f.bytes(), payload[i*seg:(i+1)*seg]) {
			t.Errorf("datagram %d reads % x", i, f.bytes())
		}
	}
	if got := tr.load(); got.RecvMsgs != segs || got.RecvDatagrams != segs {
		t.Errorf("%d messages, %d datagrams; want %d of each", got.RecvMsgs, got.RecvDatagrams, segs)
	}
	peers := []*net.UDPConn{dialUDP(t, conn), dialUDP(t, conn)}
	plan, _ := mixedPlan()
	writePlan(t, u.writer(32), internPeers(t, r, peers...), plan)
	expectPlan(t, peers, plan)
	if got := tr.load(); got.SendMsgs != uint64(len(plan)) {
		t.Errorf("%d datagrams left in %d messages", len(plan), got.SendMsgs)
	}
}

// TestUDPBatchAllocs pins the coalescing batch path at zero allocations
// per batch in steady state: a client socket writes 24 requests, the
// server socket reads them and writes them back to their interned
// source, and the client reads them again — GSO and GRO both ways,
// control messages parsed by hand.
func TestUDPBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops frames under the race detector")
	}
	srvConn := listenUDP(t)
	cliConn := dialUDP(t, srvConn)
	var srvTr, cliTr traffic
	su, sr := coalescingIO(t, srvConn, &srvTr)
	cu, cr := coalescingIO(t, cliConn, &cliTr)
	sw, cw := su.writer(32), cu.writer(32)
	const n = 24
	renew := mac.RenewMsg{NodeID: 7, Seq: 1}.AppendTo(nil)
	out := make([]*frame, n)
	in := make([]*frame, n)
	read := func(r batchReader) {
		for got := 0; got < n; {
			k, err := r.readBatch(in[got:])
			if err != nil {
				t.Fatal(err)
			}
			got += k
		}
	}
	round := func() {
		for i := range out {
			out[i] = getFrame()
			out[i].set(renew, nil)
		}
		cw.writeBatch(out) //nolint:errcheck // a loss fails the read below
		for _, f := range out {
			putFrame(f)
		}
		read(sr)
		sw.writeBatch(in) //nolint:errcheck // as above
		read(cr)
		for i, f := range in {
			putFrame(f)
			in[i] = nil
		}
	}
	round() // intern the client's address
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("a batch round trip allocates %v times, want 0", allocs)
	}
	if st := cliTr.load(); st.SendMsgs >= st.SendDatagrams || st.RecvMsgs >= st.RecvDatagrams {
		t.Errorf("the client's traffic did not coalesce: %v", st)
	}
}
