package netctl

import (
	"fmt"
	"sync"
	"time"

	"mmx/internal/stats"
)

// StormConfig drives a join/renew/release storm: Clients lifecycles run
// concurrently, each joining (with rejoin-until-deadline persistence, so
// a mid-storm daemon restart is ridden out), holding its lease with
// Renews keepalives, then releasing. Latencies are measured on the real
// clock around each successful exchange.
type StormConfig struct {
	// Clients is the number of simulated nodes.
	Clients int
	// StartID numbers the fleet from this node ID (default 1).
	StartID uint32
	// DemandBps is each node's requested rate (sets channel width).
	DemandBps float64
	// Renews is the number of lease keepalives per client.
	Renews int
	// RenewEveryS paces keepalives (jittered ±25% per client).
	RenewEveryS float64
	// RampS spreads client starts uniformly over this window, so the
	// storm front is a sustained load rather than one synchronized
	// thundering herd (0 = all at once).
	RampS float64
	// JoinDeadlineS keeps a client re-running failed handshakes until
	// this much real time has passed since its start — the persistence
	// that lets a fleet converge through a daemon outage (default 30 s).
	JoinDeadlineS float64
	// Seed feeds every client's jitter RNG.
	Seed uint64
	// Retry paces every client's exchanges (DefaultRetrier is the
	// production timing). It has no default: a zero Retrier makes no
	// attempt.
	Retry Retrier
	// NewTransport builds each client's endpoint — a Mux.Client over
	// shared UDP sockets, a MemNet endpoint, or either wrapped in a
	// FaultyTransport for chaos drills.
	NewTransport func(nodeID uint32) (Transport, error)
}

// Percentiles summarizes a latency population in seconds.
type Percentiles struct {
	N             int
	P50, P95, P99 float64
	Max           float64
}

// String renders the percentiles in milliseconds.
func (p Percentiles) String() string {
	if p.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms n=%d",
		p.P50*1e3, p.P95*1e3, p.P99*1e3, p.Max*1e3, p.N)
}

// StormResult aggregates a storm run.
type StormResult struct {
	// Joined counts clients whose handshake eventually succeeded;
	// JoinFailed counts clients still unjoined at their deadline.
	Joined, JoinFailed int
	// JoinRetries counts full handshake re-runs beyond each client's
	// first attempt at the exchange level (daemon down, storm loss).
	JoinRetries int
	// Released counts clean releases; ReleaseFailed clients left their
	// lease behind for the TTL sweeper.
	Released, ReleaseFailed int
	// Keepalive outcome counters across the fleet.
	RenewOK, Resyncs, Rejoins, RenewFailed, RenewLost int
	// Sheds counts overload sentinels received; Promotes unsolicited
	// promotions applied.
	Sheds, Promotes int
	// TransportErrs counts clients that never got a transport.
	TransportErrs int
	// Join and Renew summarize the latency populations of successful
	// handshakes and keepalives, read from fixed-memory log-scale
	// histograms (see LatencyHist): each percentile is within one
	// bucket (≈9%) of the exact order statistic.
	Join, Renew Percentiles
	// Ops is the count of completed operations (joins + keepalives +
	// releases); WallS the storm's wall-clock duration, so Ops/WallS is
	// sustained controller throughput as the fleet saw it.
	Ops   int
	WallS float64
}

// Throughput returns completed operations per second.
func (r StormResult) Throughput() float64 {
	if r.WallS <= 0 {
		return 0
	}
	return float64(r.Ops) / r.WallS
}

// Converged reports whether every client ended in a clean state: all
// joined, all released. The daemon-side half of convergence — books
// that pass AuditBooks with zero leases left — is asserted against the
// Server (in-process) or the daemon's shutdown audit line (CI soak).
func (r StormResult) Converged() bool {
	return r.JoinFailed == 0 && r.TransportErrs == 0 && r.ReleaseFailed == 0 &&
		r.Released == r.Joined
}

// clientOutcome is one lifecycle's contribution, merged after the run.
// Latencies are not carried here: lifecycles record them straight into
// the storm's shared histograms, so a million-op run holds two
// fixed-size histograms instead of a million float64s.
type clientOutcome struct {
	joined, joinFailed, transportErr bool
	joinRetries                      int
	released, releaseFailed          bool
	renewOK, resync, rejoin          int
	renewFailed, renewLost           int
	sheds, promotes                  int
}

// RunStorm executes the storm and aggregates the fleet's outcomes.
func RunStorm(cfg StormConfig) StormResult {
	if cfg.StartID == 0 {
		cfg.StartID = 1
	}
	if cfg.JoinDeadlineS <= 0 {
		cfg.JoinDeadlineS = 30
	}
	outcomes := make([]clientOutcome, cfg.Clients)
	joinHist, renewHist := NewLatencyHist(), NewLatencyHist()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		go func(i int) {
			defer wg.Done()
			outcomes[i] = runLifecycle(cfg, cfg.StartID+uint32(i), uint64(i), joinHist, renewHist)
		}(i)
	}
	wg.Wait()
	res := StormResult{WallS: time.Since(start).Seconds()}
	for i := range outcomes {
		o := &outcomes[i]
		if o.transportErr {
			res.TransportErrs++
		}
		if o.joined {
			res.Joined++
		}
		if o.joinFailed {
			res.JoinFailed++
		}
		res.JoinRetries += o.joinRetries
		if o.released {
			res.Released++
		}
		if o.releaseFailed {
			res.ReleaseFailed++
		}
		res.RenewOK += o.renewOK
		res.Resyncs += o.resync
		res.Rejoins += o.rejoin
		res.RenewFailed += o.renewFailed
		res.RenewLost += o.renewLost
		res.Sheds += o.sheds
		res.Promotes += o.promotes
	}
	res.Ops = joinHist.Count() + renewHist.Count() + res.Released
	res.Join = joinHist.Percentiles()
	res.Renew = renewHist.Percentiles()
	return res
}

// runLifecycle is one client's storm script: ramp in, join until the
// deadline, keep the lease alive, release, leave.
func runLifecycle(cfg StormConfig, id uint32, ord uint64, joinHist, renewHist *LatencyHist) clientOutcome {
	var o clientOutcome
	rng := stats.NewRNG(cfg.Seed ^ (ord+1)*0xA24BAED4963EE407)
	if cfg.RampS > 0 {
		time.Sleep(secondsToDuration(rng.Float64() * cfg.RampS))
	}
	tr, err := cfg.NewTransport(id)
	if err != nil {
		o.transportErr = true
		return o
	}
	c := NewClient(id, cfg.DemandBps, tr, cfg.Seed)
	c.Retry = cfg.Retry
	defer c.Close() //nolint:errcheck // endpoint teardown

	deadline := time.Now().Add(secondsToDuration(cfg.JoinDeadlineS))
	for {
		lat, err := c.Join()
		if err == nil {
			o.joined = true
			joinHist.Record(lat)
			break
		}
		if time.Now().After(deadline) {
			o.joinFailed = true
			o.sheds += c.Sheds
			return o
		}
		o.joinRetries++
		// The whole retry budget just failed; pause before a fresh
		// handshake so a restarting daemon isn't met by a synchronized
		// thundering herd.
		time.Sleep(secondsToDuration(cfg.Retry.Backoff.Delay(o.joinRetries, rng)))
	}

	for k := 0; k < cfg.Renews; k++ {
		if cfg.RenewEveryS > 0 {
			time.Sleep(secondsToDuration(cfg.RenewEveryS * (0.75 + 0.5*rng.Float64())))
		}
		outcome, lat, _ := c.Renew()
		switch outcome {
		case RenewOK:
			o.renewOK++
			renewHist.Record(lat)
		case RenewResynced:
			o.resync++
			renewHist.Record(lat)
		case RenewRejoined:
			o.rejoin++
		case RenewFailed:
			o.renewFailed++
		case RenewLost:
			o.renewLost++
		}
	}

	// Release persistently: a leaked lease is exactly what the storm's
	// convergence assertion is hunting, so only give up when the daemon
	// stays unreachable past the deadline.
	relDeadline := time.Now().Add(secondsToDuration(cfg.JoinDeadlineS))
	for {
		if c.Joined {
			if _, err := c.Release(); err == nil {
				o.released = true
				break
			}
		} else {
			// The lease died on the daemon's side (RenewLost); nothing
			// to release.
			o.released = true
			break
		}
		if time.Now().After(relDeadline) {
			o.releaseFailed = true
			break
		}
		time.Sleep(secondsToDuration(cfg.Retry.Backoff.Delay(1, rng)))
	}
	o.sheds += c.Sheds
	o.promotes += c.Promotes
	return o
}
