// Command mmx-apd serves the mmX access point's control plane from a UDP
// socket: the spectrum allocator and lease machinery of mac.Controller
// behind the netctl.Server ingest pipeline, speaking the existing
// little-endian wire format unchanged. Reader goroutines drain the
// socket, frames shard by node ID so each node's requests are handled in
// arrival order, the bounded ingress queue sheds overload with an
// explicit Reject sentinel, and a background sweeper expires the leases
// of nodes gone silent.
//
// On SIGTERM/SIGINT the daemon drains — every queued frame is handled
// and its reply flushed — then prints a final audit line:
//
//	mmx-apd: final leases=0 records=0 addrs=0 audit=ok
//
// and exits 0 when the books are consistent, 2 when the audit fails.
// The storm harness (cmd/mmx-load) and the CI soak grep that line for
// its convergence assertion.
//
// Usage:
//
//	mmx-apd -listen 127.0.0.1:7420
//	mmx-apd -listen :7420 -lease-ttl 5 -expire-every 1 -workers 8
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mmx/internal/mac"
	"mmx/internal/netctl"
	"mmx/internal/profile"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:7420", "UDP address to serve the control plane on")
		band        = flag.String("band", "ism24", "spectrum band: ism24 (24 GHz ISM) or u60 (60 GHz unlicensed)")
		leaseTTL    = flag.Float64("lease-ttl", 10, "seconds a lease survives without a renew (0 disables expiry)")
		expireEvery = flag.Float64("expire-every", 1, "seconds between lease-expiry sweeps (0 disables the sweeper)")
		readers     = flag.Int("readers", 1, "goroutines draining the socket")
		workers     = flag.Int("workers", 4, "shard workers serializing controller access per node")
		queue       = flag.Int("queue", 4096, "per-shard ingress queue depth before shedding")
		quiet       = flag.Bool("quiet", false, "suppress operational log lines")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the serving run to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile (at shutdown) to this file")
	)
	flag.Parse()
	// Every flag is checked before the socket opens. Each rule states what
	// a good value satisfies, so NaN fails it; a sweep period must also
	// convert to a time.Duration of at least 1 ns, or the sweeper's ticker
	// panics while the daemon is already serving.
	sweep := *expireEvery * float64(time.Second)
	for _, r := range []struct {
		name, want string
		ok         bool
	}{
		{"lease-ttl", "finite seconds, 0 or more", *leaseTTL >= 0 && *leaseTTL <= math.MaxFloat64},
		{"expire-every", "0, or seconds from 1e-9 to 9.2e9", *expireEvery == 0 || (sweep >= 1 && sweep < math.MaxInt64)},
		{"readers", "at least 1", *readers >= 1},
		{"workers", "at least 1", *workers >= 1},
		{"queue", "at least 1", *queue >= 1},
	} {
		if !r.ok {
			fmt.Fprintf(os.Stderr, "mmx-apd: bad -%s %s (want %s)\n", r.name, flag.Lookup(r.name).Value, r.want)
			os.Exit(2)
		}
	}
	var b mac.Band
	switch *band {
	case "ism24":
		b = mac.ISM24GHz()
	case "u60":
		b = mac.Unlicensed60GHz()
	default:
		fmt.Fprintf(os.Stderr, "mmx-apd: bad -band %q (want ism24 or u60)\n", *band)
		os.Exit(2)
	}

	stopProfiles, err := profile.Start("mmx-apd: ", *cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmx-apd: %v\n", err)
		os.Exit(2)
	}

	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmx-apd: listen: %v\n", err)
		stopProfiles()
		os.Exit(1)
	}
	if uc, ok := conn.(*net.UDPConn); ok {
		// One socket absorbs the whole fleet's request bursts; ask for
		// deep kernel buffers (clamped to rmem_max/wmem_max).
		uc.SetReadBuffer(16 << 20)  //nolint:errcheck // best-effort
		uc.SetWriteBuffer(16 << 20) //nolint:errcheck // best-effort
	}

	ctrl := mac.NewController(b)
	ctrl.LeaseTTL = *leaseTTL
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mmx-apd: "+format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}
	srv := netctl.NewServer(ctrl, netctl.NewRealClock(), netctl.ServerConfig{
		Readers:      *readers,
		Workers:      *workers,
		QueueLen:     *queue,
		ExpireEveryS: *expireEvery,
		Logf:         logf,
	})
	srv.Serve(conn)
	fmt.Printf("mmx-apd: serving %s on %s (ttl=%gs workers=%d queue=%d)\n",
		b, conn.LocalAddr(), *leaseTTL, *workers, *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig

	// Drain-and-flush, then report the books' final state. "leases=0
	// records=0 addrs=0 audit=ok" after a storm that released everything
	// and one lease TTL of quiet is the soak test's convergence proof:
	// nothing a node — or a stranger's datagram — left behind outlives it.
	srv.Stop()
	st := srv.Stats()
	fmt.Printf("mmx-apd: handled=%d shed=%d malformed=%d promotes=%d expired=%d\n",
		st.Handled, st.Shed, st.Malformed, st.Promotes, st.Expired)
	audit := "ok"
	code := 0
	if err := srv.Audit(); err != nil {
		audit = fmt.Sprintf("FAIL (%v)", err)
		code = 2
	}
	fmt.Printf("mmx-apd: final leases=%d records=%d addrs=%d audit=%s\n",
		srv.LeaseCount(), srv.RecordCount(), srv.AddrCount(), audit)
	stopProfiles()
	os.Exit(code)
}
