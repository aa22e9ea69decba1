package mmx

// Control-plane hot path (DESIGN.md §14). The memnet case is the pure
// software path — server ingest, controller handling, reply encode — with
// the kernel out of the picture. The loopback case adds real UDP sockets
// and (on Linux) the recvmmsg/sendmmsg transport: one client on its own
// Mux, the mux's reader and writer goroutines included. Over both, the
// pooled-frame + append-encode discipline means a steady-state renew costs
// no garbage at all: TestControlPlaneRenewAllocs pins that, and the
// benchmarks report the wall clock ungated.

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"

	"mmx/internal/mac"
	"mmx/internal/netctl"
)

// ctlTransports are the two datapaths to a live netctl.Server: each entry
// starts a server over a fresh controller and returns the constructor of
// node endpoints on it. Server, endpoints and socket end with the test.
var ctlTransports = []struct {
	name  string
	serve func(tb testing.TB) func(node uint32) netctl.Transport
}{
	{"memnet", func(tb testing.TB) func(node uint32) netctl.Transport {
		mn := netctl.NewMemNet(nil)
		startServer(tb, mn.ServerConn())
		return func(node uint32) netctl.Transport { return closeWith(tb, mn.Client(node)) }
	}},
	{"loopback", func(tb testing.TB) func(node uint32) netctl.Transport {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		startServer(tb, conn)
		// The clients multiplex over one socket exactly as mmx-load does,
		// so both directions of the storm's datapath are measured.
		mux, err := netctl.DialMux(conn.LocalAddr().String())
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { mux.Close() }) //nolint:errcheck // teardown
		return func(node uint32) netctl.Transport { return closeWith(tb, mux.Client(node)) }
	}},
}

func startServer(tb testing.TB, conn net.PacketConn) {
	srv := netctl.NewServer(mac.NewController(mac.ISM24GHz()), netctl.NewRealClock(), netctl.ServerConfig{})
	srv.Serve(conn)
	tb.Cleanup(srv.Stop)
}

func closeWith(tb testing.TB, tr netctl.Transport) netctl.Transport {
	tb.Cleanup(func() { tr.Close() }) //nolint:errcheck // teardown
	return tr
}

// joined joins node over tr and returns its renew frame. A caller patches
// the Seq field in place (bytes 5..8), so the client side contributes no
// allocations and what is measured is the server path.
func joined(tb testing.TB, tr netctl.Transport, node uint32) []byte {
	tb.Helper()
	join, err := mac.Marshal(mac.JoinRequest{NodeID: node, Seq: 1, DemandBps: 1e6})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.Send(join); err != nil {
		tb.Fatal(err)
	}
	if reply, ok := tr.Recv(5.0); !ok || mac.MsgType(reply[0]) != mac.MsgAssignment {
		tb.Fatalf("node %d join did not draw an assignment (ok=%v)", node, ok)
	}
	renew, err := mac.Marshal(mac.RenewMsg{NodeID: node, Seq: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return renew
}

// renewer joins node over tr and returns one steady-state renew round
// trip with the given sequence number.
func renewer(tb testing.TB, tr netctl.Transport, node uint32) func(seq uint32) {
	tb.Helper()
	renew := joined(tb, tr, node)
	return func(seq uint32) {
		binary.LittleEndian.PutUint32(renew[5:9], seq)
		if err := tr.Send(renew); err != nil {
			tb.Fatal(err)
		}
		if reply, ok := tr.Recv(-1); !ok || mac.MsgType(reply[0]) != mac.MsgRenewAck {
			tb.Fatalf("renew %d did not draw an ack (ok=%v)", seq, ok)
		}
	}
}

// TestControlPlaneRenewAllocs pins the server's steady-state renew at
// 0 allocs/op over both datapaths. Frames come from a sync.Pool, which
// the race detector deliberately leaks, so the contract holds without it.
func TestControlPlaneRenewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops frames under the race detector")
	}
	for _, c := range ctlTransports {
		t.Run(c.name, func(t *testing.T) {
			renew := renewer(t, c.serve(t)(1), 1)
			seq := uint32(2)
			if allocs := testing.AllocsPerRun(1000, func() { renew(seq); seq++ }); allocs != 0 {
				t.Errorf("steady-state renew allocates %v times per op, want 0", allocs)
			}
		})
	}
}

// benchSaturated measures sustained throughput rather than round-trip
// latency: a fleet of clients keeps several renews in flight each, so
// the server's readers see full batches and the ns/op converges on the
// per-frame cost of the pipeline — the number the 100k-client storm's
// sustained ops/s is bounded by — instead of a wakeup-dominated
// ping-pong.
func benchSaturated(b *testing.B, client func(node uint32) netctl.Transport) {
	b.Helper()
	const fleet = 16
	const depth = 8 // in flight per client; stays under every queue bound
	trs := make([]netctl.Transport, fleet)
	renews := make([][]byte, fleet)
	for i := range trs {
		node := uint32(i + 1)
		trs[i] = client(node)
		renews[i] = joined(b, trs[i], node)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := range trs {
		n := b.N / fleet
		if i < b.N%fleet {
			n++
		}
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			tr, renew := trs[i], renews[i]
			inflight := 0
			for k := 0; k < n; k++ {
				binary.LittleEndian.PutUint32(renew[5:9], uint32(k+2))
				if err := tr.Send(renew); err != nil {
					b.Error(err)
					return
				}
				if inflight++; inflight >= depth {
					if _, ok := tr.Recv(-1); !ok {
						b.Error("transport closed mid-bench")
						return
					}
					inflight--
				}
			}
			for ; inflight > 0; inflight-- {
				if _, ok := tr.Recv(-1); !ok {
					b.Error("transport closed draining")
					return
				}
			}
		}(i, n)
	}
	wg.Wait()
}

func BenchmarkControlPlane(b *testing.B) {
	for _, c := range ctlTransports {
		b.Run(c.name, func(b *testing.B) {
			renew := renewer(b, c.serve(b)(1), 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				renew(uint32(i + 2))
			}
		})
		b.Run(c.name+"-saturated", func(b *testing.B) { benchSaturated(b, c.serve(b)) })
	}
}
