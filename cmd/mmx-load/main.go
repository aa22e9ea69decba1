// Command mmx-load storms a live mmx-apd daemon with a fleet of
// simulated control-plane clients — 100k+ nodes multiplexed over a
// handful of UDP sockets — through join/renew/release lifecycles, and
// reports handshake and keepalive latency percentiles plus sustained
// throughput. Each client runs the full netctl retry state machine, so
// the fleet rides out packet loss, daemon overload (shed sentinels) and
// even a daemon restart mid-storm; -drop/-dup/-trunc/-delay inject
// seeded faults into every client's send path for chaos drills.
//
// The run's convergence assertion is client-side: every client joined
// and every client released. The daemon-side half — zero leases left,
// books passing audit — is the "final leases=0 … audit=ok" line mmx-apd
// prints on SIGTERM; the CI soak checks both. Exit status: 0 on
// convergence, 1 otherwise.
//
// Usage:
//
//	mmx-load -addr 127.0.0.1:7420 -clients 100000 -sockets 8
//	mmx-load -addr 127.0.0.1:7420 -clients 50000 -drop 0.1 -dup 0.05
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"mmx/internal/faults"
	"mmx/internal/netctl"
	"mmx/internal/profile"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7420", "mmx-apd address to storm")
		clients     = flag.Int("clients", 100000, "simulated clients")
		sockets     = flag.Int("sockets", 8, "UDP sockets the fleet multiplexes over")
		startID     = flag.Uint("start-id", 1, "first node ID")
		demand      = flag.Float64("demand", 1e6, "per-node demand in bit/s (sets channel width)")
		renews      = flag.Int("renews", 3, "lease keepalives per client")
		renewEvery  = flag.Float64("renew-every", 0.5, "seconds between keepalives (jittered)")
		ramp        = flag.Float64("ramp", 5, "seconds over which client starts are spread")
		joinDeadl   = flag.Float64("join-deadline", 30, "seconds a client keeps re-trying its handshake")
		seed        = flag.Uint64("seed", 1, "RNG seed for jitter and fault injection")
		timeoutS    = flag.Float64("timeout", 0.1, "per-attempt reply timeout in seconds")
		attempts    = flag.Int("attempts", 8, "retry attempts per exchange")
		drop        = flag.Float64("drop", 0, "injected frame-drop probability")
		dup         = flag.Float64("dup", 0, "injected duplication probability")
		trunc       = flag.Float64("trunc", 0, "injected truncation probability")
		delay       = flag.Float64("delay", 0, "injected delay probability")
		delayMean   = flag.Float64("delay-mean", 0.002, "mean injected delay in seconds")
		quietReport = flag.Bool("quiet", false, "print only the verdict line")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the storm to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile (after the storm) to this file")
	)
	flag.Parse()
	// Every flag is checked before the first dial. Each rule states what a
	// good value satisfies, so NaN fails it; every node ID fits in 32 bits.
	positive := func(x float64) bool { return x > 0 && x <= math.MaxFloat64 }
	nonNegative := func(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }
	prob := func(x float64) bool { return x >= 0 && x <= 1 }
	timeout := *timeoutS * float64(time.Second)
	for _, r := range []struct {
		name, want string
		ok         bool
	}{
		{"sockets", "at least 1", *sockets >= 1},
		{"clients", "0 or more", *clients >= 0},
		{"timeout", "seconds from 1e-9 to 9.2e9", timeout >= 1 && timeout < math.MaxInt64},
		{"attempts", "at least 1", *attempts >= 1},
		{"drop", "a probability in [0, 1]", prob(*drop)},
		{"dup", "a probability in [0, 1]", prob(*dup)},
		{"trunc", "a probability in [0, 1]", prob(*trunc)},
		{"delay", "a probability in [0, 1]", prob(*delay)},
		{"delay-mean", "finite seconds, 0 or more", nonNegative(*delayMean)},
		{"renew-every", "finite seconds, 0 or more", nonNegative(*renewEvery)},
		{"ramp", "finite seconds, 0 or more", nonNegative(*ramp)},
		{"join-deadline", "finite seconds above 0", positive(*joinDeadl)},
		{"renews", "0 or more", *renews >= 0},
		{"demand", "finite bit/s above 0", positive(*demand)},
		{"start-id", "from 1 to 2^32 - max(clients, 1)",
			*startID >= 1 && *startID < 1<<32 && uint64(max(*clients, 1)) <= 1<<32-uint64(*startID)},
	} {
		if !r.ok {
			fmt.Fprintf(os.Stderr, "mmx-load: bad -%s %s (want %s)\n", r.name, flag.Lookup(r.name).Value, r.want)
			os.Exit(2)
		}
	}
	stopProfiles, err := profile.Start("mmx-load: ", *cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmx-load: %v\n", err)
		os.Exit(2)
	}

	muxes := make([]*netctl.Mux, *sockets)
	for i := range muxes {
		m, err := netctl.DialMux(*addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmx-load: dial %s: %v\n", *addr, err)
			stopProfiles()
			os.Exit(1)
		}
		muxes[i] = m
		defer m.Close() //nolint:errcheck // teardown
	}

	injecting := *drop > 0 || *dup > 0 || *trunc > 0 || *delay > 0
	retry := netctl.DefaultRetrier()
	retry.TimeoutS = *timeoutS
	retry.MaxAttempts = *attempts

	cfg := netctl.StormConfig{
		Clients:       *clients,
		StartID:       uint32(*startID),
		DemandBps:     *demand,
		Renews:        *renews,
		RenewEveryS:   *renewEvery,
		RampS:         *ramp,
		JoinDeadlineS: *joinDeadl,
		Seed:          *seed,
		Retry:         retry,
		NewTransport: func(nodeID uint32) (netctl.Transport, error) {
			t := muxes[int(nodeID)%len(muxes)].Client(nodeID)
			if !injecting {
				return t, nil
			}
			// One seeded side channel per client: deterministic per
			// node, no cross-client lock contention.
			side := faults.Lossy(*seed^uint64(nodeID)*0x9E3779B97F4A7C15, *drop, *dup, *trunc)
			side.DelayProb, side.DelayMeanS = *delay, *delayMean
			return netctl.NewFaultyTransport(t, side), nil
		},
	}

	fmt.Printf("mmx-load: storming %s with %d clients over %d sockets (ramp %gs)\n",
		*addr, *clients, *sockets, *ramp)
	res := netctl.RunStorm(cfg)

	if !*quietReport {
		fmt.Printf("clients:   joined=%d failed=%d released=%d release-failed=%d transport-errs=%d\n",
			res.Joined, res.JoinFailed, res.Released, res.ReleaseFailed, res.TransportErrs)
		fmt.Printf("recovery:  join-retries=%d rejoins=%d resyncs=%d renew-failed=%d renew-lost=%d sheds=%d promotes=%d\n",
			res.JoinRetries, res.Rejoins, res.Resyncs, res.RenewFailed, res.RenewLost, res.Sheds, res.Promotes)
		fmt.Printf("join:      %s\n", res.Join)
		fmt.Printf("renew:     %s\n", res.Renew)
		fmt.Printf("sustained: %.0f ops/s over %.2fs (%d ops)\n", res.Throughput(), res.WallS, res.Ops)
	}
	stopProfiles()
	if res.Converged() {
		fmt.Printf("mmx-load: CONVERGED (%d/%d clients joined and released)\n", res.Released, *clients)
		return
	}
	fmt.Printf("mmx-load: NOT CONVERGED: %d join failures, %d release failures, %d transport errors\n",
		res.JoinFailed, res.ReleaseFailed, res.TransportErrs)
	os.Exit(1)
}
