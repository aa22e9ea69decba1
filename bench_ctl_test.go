package mmx

// Control-plane hot-path benchmarks (DESIGN.md §14). The memnet case is
// the pure software path — server ingest, controller handling, reply
// encode — with the kernel out of the picture; its gate is 0 allocs/op:
// the pooled-frame + append-encode discipline means a steady-state renew
// costs no garbage at all. The loopback case adds real UDP sockets and
// (on Linux) the recvmmsg/sendmmsg transport, pinning the syscall-bound
// single-stream round trip of one client on its own Mux — the mux's
// reader and writer goroutines included. Committed baseline: BENCH_ctl.json, gated in
// CI by mmx-benchstat like the PHY and AP numbers.

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"

	"mmx/internal/mac"
	"mmx/internal/netctl"
)

// benchRenewLoop joins once, then measures b.N steady-state renews over
// the given transport. The renew frame is built once and its Seq field
// patched in place, so the client side contributes no allocations and
// the measurement is the server path.
func benchRenewLoop(b *testing.B, tr netctl.Transport, node uint32) {
	b.Helper()
	join, err := mac.Marshal(mac.JoinRequest{NodeID: node, Seq: 1, DemandBps: 1e6})
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Send(join); err != nil {
		b.Fatal(err)
	}
	reply, ok := tr.Recv(5.0)
	if !ok || mac.MsgType(reply[0]) != mac.MsgAssignment {
		b.Fatalf("join did not draw an assignment (ok=%v)", ok)
	}
	renew, err := mac.Marshal(mac.RenewMsg{NodeID: node, Seq: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint32(renew[5:9], uint32(i+2))
		if err := tr.Send(renew); err != nil {
			b.Fatal(err)
		}
		reply, ok := tr.Recv(-1)
		if !ok || mac.MsgType(reply[0]) != mac.MsgRenewAck {
			b.Fatalf("renew %d did not draw an ack (ok=%v)", i, ok)
		}
	}
}

// benchSaturated measures sustained throughput rather than round-trip
// latency: a fleet of clients keeps several renews in flight each, so
// the server's readers see full batches and the ns/op converges on the
// per-frame cost of the pipeline — the number the 100k-client storm's
// sustained ops/s is bounded by — instead of a wakeup-dominated
// ping-pong.
func benchSaturated(b *testing.B, mk func(node uint32) netctl.Transport) {
	b.Helper()
	const fleet = 16
	const depth = 8 // in flight per client; stays under every queue bound
	trs := make([]netctl.Transport, fleet)
	renews := make([][]byte, fleet)
	for i := range trs {
		node := uint32(i + 1)
		trs[i] = mk(node)
		join, err := mac.Marshal(mac.JoinRequest{NodeID: node, Seq: 1, DemandBps: 1e6})
		if err != nil {
			b.Fatal(err)
		}
		if err := trs[i].Send(join); err != nil {
			b.Fatal(err)
		}
		if reply, ok := trs[i].Recv(5.0); !ok || mac.MsgType(reply[0]) != mac.MsgAssignment {
			b.Fatalf("client %d join did not draw an assignment (ok=%v)", node, ok)
		}
		if renews[i], err = mac.Marshal(mac.RenewMsg{NodeID: node, Seq: 2}); err != nil {
			b.Fatal(err)
		}
	}
	defer func() {
		for _, tr := range trs {
			tr.Close() //nolint:errcheck // bench teardown
		}
	}()
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
	b.Run("memnet", func(b *testing.B) {
		mn := netctl.NewMemNet(nil)
		ctrl := mac.NewController(mac.ISM24GHz())
		srv := netctl.NewServer(ctrl, netctl.NewRealClock(), netctl.ServerConfig{})
		srv.Serve(mn.ServerConn())
		defer srv.Stop()
		tr := mn.Client(1)
		defer tr.Close() //nolint:errcheck // bench teardown
		benchRenewLoop(b, tr, 1)
	})
	b.Run("loopback", func(b *testing.B) {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		ctrl := mac.NewController(mac.ISM24GHz())
		srv := netctl.NewServer(ctrl, netctl.NewRealClock(), netctl.ServerConfig{})
		srv.Serve(conn)
		defer srv.Stop()
		mux, err := netctl.DialMux(conn.LocalAddr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer mux.Close() //nolint:errcheck // bench teardown
		tr := mux.Client(2)
		defer tr.Close() //nolint:errcheck // bench teardown
		benchRenewLoop(b, tr, 2)
	})
	b.Run("memnet-saturated", func(b *testing.B) {
		mn := netctl.NewMemNet(nil)
		ctrl := mac.NewController(mac.ISM24GHz())
		srv := netctl.NewServer(ctrl, netctl.NewRealClock(), netctl.ServerConfig{})
		srv.Serve(mn.ServerConn())
		defer srv.Stop()
		benchSaturated(b, func(node uint32) netctl.Transport { return mn.Client(node) })
	})
	b.Run("loopback-saturated", func(b *testing.B) {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		ctrl := mac.NewController(mac.ISM24GHz())
		srv := netctl.NewServer(ctrl, netctl.NewRealClock(), netctl.ServerConfig{})
		srv.Serve(conn)
		defer srv.Stop()
		// The fleet multiplexes over one socket exactly as mmx-load
		// does, so both directions of the storm's real datapath — the
		// mux's batched reads and the server pipeline — are measured.
		mux, err := netctl.DialMux(conn.LocalAddr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer mux.Close() //nolint:errcheck // bench teardown
		benchSaturated(b, func(node uint32) netctl.Transport { return mux.Client(node) })
	})
}
