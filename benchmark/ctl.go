package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mmx/internal/mac"
	"mmx/internal/netctl"
	"mmx/internal/stats"
)

// The three control-plane workloads drive an in-process netctl.Server
// over the host's loopback interface (no real link is crossed): one
// server socket, and one client mux socket per CPU. Virtual clients are
// netctl.Client state machines, exactly what mmx-load runs.

// ctlSpec sizes one control-plane workload.
type ctlSpec struct {
	lifecycles int // per repeat (closed loop)
	renews     int // keepalives between a lifecycle's join and release
	inflight   int // closed loop: lifecycles in flight

	// Open loop: ops/s offered for durationS per repeat by a fixed pool
	// of client goroutines; one lifecycle's ops are gapS apart; an op
	// later than limitUS from its due time missed the limit. Missing it
	// is reported (netctl.over_limit_frac), not failed: the reference
	// box's hypervisor stalls the guest for 5-60 ms about once a second.
	rate, durationS, gapS, limitUS float64
	workers                        int

	repeats int // measured repeats at refSeconds
}

const (
	opJoin = iota
	opRenew
	opRelease
	opKinds
)

var opSpan = [opKinds]string{"netctl.Client.Join", "netctl.Client.Renew", "netctl.Client.Release"}

// lateUS is how far past its due time an op may be dispatched before
// the generator counts as having run late.
const lateUS = 1000

// setupsPerRepeat is how many times set-up is timed before the first
// repeat and after each one.
const setupsPerRepeat = 3

// dispatchTick is the shortest sleep of the open-loop dispatcher.
const dispatchTick = 25 * time.Microsecond

// ctlRig is a running server and the way to reach it.
type ctlRig struct {
	srv       *netctl.Server
	transport func(k int, id uint32) netctl.Transport
	stop      func()
}

// startUDPRig serves a fresh controller on a loopback UDP socket and
// dials one mux per CPU.
func startUDPRig() (*ctlRig, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The socket is sized the way cmd/mmx-apd sizes the daemon's: the
	// default receive buffer holds fewer datagrams than are in flight.
	conn.(*net.UDPConn).SetReadBuffer(16 << 20)  //nolint:errcheck // best-effort; kernel clamps
	conn.(*net.UDPConn).SetWriteBuffer(16 << 20) //nolint:errcheck // best-effort
	srv := netctl.NewServer(mac.NewController(mac.ISM24GHz()), netctl.NewRealClock(), netctl.ServerConfig{})
	srv.Serve(conn)
	muxes := make([]*netctl.Mux, runtime.GOMAXPROCS(0))
	stop := func() {
		for _, m := range muxes {
			if m != nil {
				m.Close() //nolint:errcheck // teardown of a loopback socket
			}
		}
		srv.Stop()
	}
	for i := range muxes {
		if muxes[i], err = netctl.DialMux(conn.LocalAddr().String()); err != nil {
			stop()
			return nil, err
		}
	}
	return &ctlRig{
		srv:       srv,
		transport: func(k int, id uint32) netctl.Transport { return muxes[k%len(muxes)].Client(id) },
		stop:      stop,
	}, nil
}

// startMemRig is the same pipeline over netctl.MemNet: no kernel.
func startMemRig() *ctlRig {
	mn := netctl.NewMemNet(nil)
	srv := netctl.NewServer(mac.NewController(mac.ISM24GHz()), netctl.NewRealClock(), netctl.ServerConfig{})
	srv.Serve(mn.ServerConn())
	return &ctlRig{
		srv:       srv,
		transport: func(_ int, id uint32) netctl.Transport { return mn.Client(id) },
		stop:      srv.Stop,
	}
}

// countingTransport counts the frames a client sends, retransmissions
// included, so the server's Handled counter can be checked exactly.
type countingTransport struct {
	netctl.Transport
	sends *int
}

func (c countingTransport) Send(frame []byte) error {
	*c.sends++
	return c.Transport.Send(frame)
}

// ctlTotals is the account of a repeat: one client goroutine's, or all
// of them merged.
type ctlTotals struct {
	ops, sends, failed int // exchanges completed, frames sent, ops that errored
	joins, shared      int // handshakes completed, of which into an SDM share
	sheds, promotes    int
	late, overLimit    int
	latUS              [opKinds][]float64
	allUS, lateUS      []float64
}

func (tt *ctlTotals) merge(o *ctlTotals) {
	tt.ops += o.ops
	tt.sends += o.sends
	tt.failed += o.failed
	tt.joins += o.joins
	tt.shared += o.shared
	tt.sheds += o.sheds
	tt.promotes += o.promotes
	tt.late += o.late
	tt.overLimit += o.overLimit
	for k := range o.latUS {
		tt.latUS[k] = append(tt.latUS[k], o.latUS[k]...)
	}
	tt.allUS = append(tt.allUS, o.allUS...)
	tt.lateUS = append(tt.lateUS, o.lateUS...)
}

// ctlTally is one client goroutine: its account and what it needs to
// run ops.
type ctlTally struct {
	ctlTotals
	lastDone time.Time
	ln       *lane
	parent   int32
	seed     uint64
	limitUS  float64
	rig      *ctlRig
	slot     int
	clients  map[int]*netctl.Client // open loop: lifecycle → client
}

func (t *ctlTally) newClient(id uint32) *netctl.Client {
	tr := countingTransport{t.rig.transport(t.slot, id), &t.sends}
	return netctl.NewClient(id, nodeDemandBps, tr, t.seed)
}

// do runs one op on c. due is when the op was meant to start; the zero
// time means now (closed loop). Latency is counted from due.
func (t *ctlTally) do(c *netctl.Client, kind int, due time.Time) {
	start := time.Now()
	if due.IsZero() {
		due = start
	} else {
		l := float64(start.Sub(due)) / 1e3
		t.lateUS = append(t.lateUS, l)
		if l > lateUS {
			t.late++
		}
	}
	sp := t.ln.begin(opSpan[kind], t.parent)
	var err error
	exchanges := 1
	switch kind {
	case opJoin:
		_, err = c.Join()
		if err == nil {
			t.joins++
			if c.Shared {
				t.shared++
				exchanges = 2 // join answered by a reject, then the share confirm
			}
		}
	case opRenew:
		var outcome netctl.RenewOutcome
		outcome, _, err = c.Renew()
		if err == nil && outcome != netctl.RenewOK && outcome != netctl.RenewResynced {
			err = fmt.Errorf("renew outcome %d", outcome)
		}
	case opRelease:
		_, err = c.Release()
	}
	t.ln.end(sp)
	done := time.Now()
	t.lastDone = done
	us := float64(done.Sub(due)) / 1e3
	if err != nil {
		t.failed++
		return
	}
	t.ops += exchanges
	t.latUS[kind] = append(t.latUS[kind], us)
	t.allUS = append(t.allUS, us)
	if t.limitUS > 0 && us > t.limitUS {
		t.overLimit++
	}
}

func (t *ctlTally) retire(c *netctl.Client) {
	t.sheds += c.Sheds
	t.promotes += c.Promotes
	c.Close() //nolint:errcheck // unregisters a mux endpoint; cannot fail
}

// closedLoop runs every lifecycle of ids with spec.inflight of them in
// flight: each client goroutine takes the next lifecycle as soon as its
// previous one has released.
func closedLoop(rig *ctlRig, spec ctlSpec, ids []uint32, seed uint64, tr *tracer, parent int32) ([]*ctlTally, float64) {
	tallies := make([]*ctlTally, spec.inflight)
	perClient := len(ids) * (spec.renews + 2) / spec.inflight
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := range tallies {
		t := &ctlTally{rig: rig, slot: g, seed: seed, parent: parent, ln: tr.lane(perClient * 2)}
		tallies[g] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(ids) {
					return
				}
				c := t.newClient(ids[j])
				t.do(c, opJoin, time.Time{})
				for r := 0; r < spec.renews; r++ {
					t.do(c, opRenew, time.Time{})
				}
				t.do(c, opRelease, time.Time{})
				t.retire(c)
			}
		}()
	}
	wg.Wait()
	return tallies, time.Since(start).Seconds()
}

// pacedEvent is one op of the open-loop schedule.
type pacedEvent struct {
	dueNS int64 // from the start of the repeat
	life  int
	kind  int
}

// pacedSchedule draws the arrival times of rate·durationS/(ops per
// lifecycle) lifecycles uniformly over the repeat — a Poisson process
// conditioned on its count, so every seed offers the same number of ops
// — lays each lifecycle's ops gapS apart, and returns every op in due
// order with the number of lifecycles.
func pacedSchedule(spec ctlSpec, seed uint64) ([]pacedEvent, int) {
	rng := stats.NewRNG(seed ^ 0x9ace)
	perLife := spec.renews + 2
	lives := max(int(spec.rate*spec.durationS/float64(perLife)), 1)
	evs := make([]pacedEvent, 0, lives*perLife)
	for life := 0; life < lives; life++ {
		t := rng.Uniform(0, spec.durationS)
		for i := 0; i < perLife; i++ {
			kind := opRenew
			if i == 0 {
				kind = opJoin
			} else if i == perLife-1 {
				kind = opRelease
			}
			evs = append(evs, pacedEvent{int64((t + float64(i)*spec.gapS) * 1e9), life, kind})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].dueNS < evs[j].dueNS })
	return evs, lives
}

// openLoop offers the schedule whether or not earlier replies were slow.
// One dispatcher hands each op, never before its due time, to the
// client goroutine that owns the op's lifecycle (so a lifecycle's ops
// never overlap). The dispatcher sleeps in nanosleep: the runtime's own
// timers are only good to a millisecond on a mostly idle process, which
// made an eighth of the ops late by more than the latencies measured.
// It sleeps at least dispatchTick, so that pacing does not itself
// occupy one of two CPUs, and yields after each batch so the clients
// it woke run before it blocks its P in the syscall. What lateness is
// left (about 0.1 ms: tick, timer slack, wake-up) is part of every
// latency counted from the due time; netctl.late_* report it.
func openLoop(rig *ctlRig, spec ctlSpec, sched []pacedEvent, ids []uint32, seed uint64, tr *tracer, parent int32) ([]*ctlTally, float64) {
	tallies := make([]*ctlTally, spec.workers)
	queues := make([]chan pacedEvent, spec.workers)
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for w := range tallies {
		t := &ctlTally{rig: rig, slot: w, seed: seed, parent: parent, ln: tr.lane(2 * len(sched) / spec.workers),
			limitUS: spec.limitUS, clients: map[int]*netctl.Client{}}
		tallies[w] = t
		// Room for every op a worker can be behind by without stalling
		// the dispatcher, which would make every later op late too.
		queues[w] = make(chan pacedEvent, 256)
		wg.Add(1)
		go func(q chan pacedEvent) {
			defer wg.Done()
			for ev := range q {
				c := t.clients[ev.life]
				if c == nil {
					c = t.newClient(ids[ev.life])
					t.clients[ev.life] = c
				}
				t.do(c, ev.kind, start.Add(time.Duration(ev.dueNS)))
				if ev.kind == opRelease {
					t.retire(c)
					delete(t.clients, ev.life)
				}
			}
		}(queues[w])
	}
	for i := 0; i < len(sched); {
		preciseSleep(max(time.Duration(sched[i].dueNS)-time.Since(start), dispatchTick))
		for now := time.Since(start); i < len(sched) && time.Duration(sched[i].dueNS) <= now; i++ {
			queues[sched[i].life%spec.workers] <- sched[i]
		}
		runtime.Gosched()
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	end := start
	for _, t := range tallies {
		if t.lastDone.After(end) {
			end = t.lastDone
		}
	}
	return tallies, end.Sub(start).Seconds()
}

// ctlIDs draws distinct node IDs for one repeat's lifecycles. Every
// repeat reuses them, so repeats are identical in configuration and the
// controller's per-node books stop growing after the warm-up.
func ctlIDs(seed uint64, n int) []uint32 {
	rng := stats.NewRNG(seed ^ 0xc71)
	base := uint32(1 + rng.Intn(1<<24))
	ids := make([]uint32, n)
	for i, p := range rng.Perm(n) {
		ids[i] = base + uint32(p)
	}
	return ids
}

// runCtl is the body of the three control-plane workloads.
func runCtl(w workloadDef, cfg config, tr *tracer, spec ctlSpec) *result {
	res := newResult(w, cfg)
	begin := time.Now()
	ln := tr.lane(64)
	root := ln.begin(w.Name, 0)
	defer func() {
		ln.end(root)
		res.finish(w, cfg, time.Since(begin), tr)
	}()

	// Set-up: generate the inputs, start the server and the muxes. It is
	// timed a few times before the first repeat and again, on a rig of
	// its own that is stopped at once, after every repeat, so that the
	// samples spread over the run the way the repeats do.
	heapBase := liveHeap()
	var setupS []float64
	setup := func() (*ctlRig, []uint32, []pacedEvent) {
		t0 := time.Now()
		sp := ln.begin("setup", root.id)
		var ids []uint32
		var sched []pacedEvent
		if spec.rate > 0 {
			var lives int
			sched, lives = pacedSchedule(spec, cfg.Seed)
			ids = ctlIDs(cfg.Seed, lives)
		} else {
			ids = ctlIDs(cfg.Seed, spec.lifecycles)
		}
		rig, err := startUDPRig()
		ln.end(sp)
		setupS = append(setupS, time.Since(t0).Seconds())
		res.check(err == nil, "setup %d: %v", len(setupS), err)
		return rig, ids, sched
	}
	var rig *ctlRig
	var ids []uint32
	var sched []pacedEvent
	for i := 0; i < setupsPerRepeat; i++ {
		if rig != nil {
			rig.stop()
		}
		if rig, ids, sched = setup(); rig == nil {
			return res
		}
	}
	defer rig.stop()

	// audited runs one repeat against r and checks the daemon's books
	// after it.
	audited := func(r *ctlRig, k int, rt *tracer, parent int32) (ctlTotals, float64, float64) {
		before := r.srv.Stats()
		var tallies []*ctlTally
		var wall float64
		if spec.rate > 0 {
			tallies, wall = openLoop(r, spec, sched, ids, cfg.Seed, rt, parent)
		} else {
			tallies, wall = closedLoop(r, spec, ids, cfg.Seed, rt, parent)
		}
		var tt ctlTotals
		for _, t := range tallies {
			tt.merge(&t.ctlTotals)
		}
		handled := float64(r.srv.Stats().Handled - before.Handled)
		res.attempt(tt.ops + tt.failed)
		res.failf(tt.failed, "repeat %d: %d ops errored", k, tt.failed)
		res.failf(tt.sheds, "repeat %d: %d ops shed", k, tt.sheds)
		err := r.srv.Audit()
		res.check(err == nil, "repeat %d: Audit: %v", k, err)
		res.check(r.srv.LeaseCount() == 0, "repeat %d: %d leases left", k, r.srv.LeaseCount())
		return tt, wall, handled
	}

	n := cfg.repeats(spec.repeats)
	res.Repeats = n
	var perS, p50, p99, tracedPerS, tracedP50, handledPerOp []float64
	var all ctlTotals
	first := rig.srv.Stats()
	sends := 0 // frames sent to rig, warm-up included
	if spec.rate > 0 {
		// Warm the open loop's daemon and muxes with every worker's client
		// in flight at once, as the closed loops' are: how many lifecycles
		// of the schedule overlap depends on the seed and on timing, and
		// tables grown to that peak would make the heap left after a
		// repeat differ from run to run by 5-8%.
		warm, _ := closedLoop(rig, ctlSpec{renews: spec.renews, inflight: spec.workers}, ids, cfg.Seed, nil, 0)
		for _, t := range warm {
			sends += t.sends
		}
	}
	for k := 0; k <= n; k++ { // repeat 0 is the discarded warm-up
		var rt *tracer
		var rl *lane
		if cfg.Traced && k > 0 && k%2 == 0 {
			rt, rl = tr, ln
		}
		sp := rl.begin("repeat", root.id)
		tt, wall, handled := audited(rig, k, rt, sp.id)
		rl.endCount(sp, int64(tt.ops))
		sends += tt.sends
		for i := 0; i < setupsPerRepeat; i++ {
			if side, _, _ := setup(); side != nil {
				side.stop()
			}
		}
		if k == 0 || tt.ops == 0 {
			continue
		}
		asc := sorted(tt.allUS)
		if rt != nil {
			tracedPerS = append(tracedPerS, float64(tt.ops)/wall)
			tracedP50 = append(tracedP50, percentile(asc, 50))
			continue
		}
		perS = append(perS, float64(tt.ops)/wall)
		p50 = append(p50, percentile(asc, 50))
		p99 = append(p99, percentile(asc, 99))
		handledPerOp = append(handledPerOp, handled/float64(tt.ops))
		all.merge(&tt)
	}
	if len(perS) == 0 {
		res.failf(1, "no measured repeat completed an op")
		return res
	}
	// The daemon handled every frame sent, retransmissions included. This
	// is checked once, over the whole run: when the host stalls the guest
	// past the client's 100 ms reply timeout, the retransmission can
	// arrive after the repeat that sent it has been answered and counted.
	want := first.Handled + uint64(sends)
	for wait := time.Now().Add(time.Second); rig.srv.Stats().Handled < want && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	last := rig.srv.Stats()
	res.check(last.Handled == want, "server handled %d of %d frames sent", last.Handled-first.Handled, sends)
	res.SetupRepeats, res.Warmup = len(setupS), 1
	res.set("setup_s", setupS...)
	// On the open loop ctl_ops_per_s is the rate achieved: the rate
	// offered for as long as the daemon keeps up.
	res.set("ctl_ops_per_s", perS...)
	if spec.rate > 0 {
		res.set("ctl_p50_us", p50...)
		res.set("netctl.paced_p99_us", p99...)
		res.set("netctl.late_frac", float64(all.late)/float64(len(all.lateUS)))
		res.set("netctl.late_p99_us", percentile(sorted(all.lateUS), 99))
		res.set("netctl.over_limit_frac", float64(all.overLimit)/float64(len(all.allUS)))
	} else {
		udpNS := make([]float64, len(perS))
		for i, v := range perS {
			udpNS[i] = 1e9 / v
		}
		res.set("netctl.udp_ns_per_op", udpNS...)
	}
	res.set("netctl.handled_per_op", handledPerOp...)
	res.set("netctl.shed", float64(last.Shed-first.Shed))
	res.set("netctl.malformed", float64(last.Malformed-first.Malformed))
	res.set("netctl.promotes", float64(last.Promotes-first.Promotes))
	res.set("netctl.expired", float64(last.Expired-first.Expired))
	res.set("netctl.client_retries", float64(all.sends-all.ops))
	res.set("netctl.leases_end", float64(rig.srv.LeaseCount()))
	res.set("mac.sdm_share_frac", float64(all.shared)/float64(max(all.joins, 1)))
	res.setPercentiles("netctl.join_p50_us", "netctl.join_p99_us", all.latUS[opJoin])
	res.setPercentiles("netctl.renew_p50_us", "netctl.renew_p99_us", all.latUS[opRenew])
	res.setPercentiles("netctl.release_p50_us", "netctl.release_p99_us", all.latUS[opRelease])

	// What the daemon, the muxes and the driver's inputs still hold once
	// every lease is released, per client the workload keeps in flight.
	clients := spec.inflight
	if spec.rate > 0 {
		clients = spec.workers
	}
	all = ctlTotals{}
	// Read a few times: the rigs the set-ups started and stopped wind
	// down on their own goroutines and hold their buffers until they do.
	var heapB []float64
	for i := 0; i < 3; i++ {
		time.Sleep(10 * time.Millisecond)
		heapB = append(heapB, float64(liveHeap()-heapBase-tr.bytes())/float64(clients))
	}
	res.set("heap_b_per_node", heapB...)

	if cfg.Traced {
		if spec.rate > 0 {
			res.set("trace_overhead_frac", median(tracedP50)/median(p50)-1)
		} else {
			res.set("trace_overhead_frac", median(perS)/median(tracedPerS)-1)
		}
		sp := ln.begin("probe/memnet", root.id)
		mem := startMemRig()
		audited(mem, -1, nil, sp.id) // warm the pools
		before := snapRuntime()
		tt, wall, _ := audited(mem, -1, nil, sp.id)
		mallocs := snapRuntime().mallocs - before.mallocs
		mem.stop()
		ln.end(sp)
		if tt.ops > 0 {
			busy := wall
			if spec.rate > 0 { // an open loop mostly sleeps: charge the round trips, not the wall
				busy = sum(tt.allUS) / 1e6
			}
			res.set("netctl.mem_ns_per_op", busy*1e9/float64(tt.ops))
			res.set("netctl.mem_allocs_per_op", float64(mallocs)/float64(tt.ops))
		}
		probeMAC(res, cfg, spec, ids, ln, root.id)
	}
	return res
}

// probeMAC replays the workload's op trace straight into a
// mac.Controller, in waves of spec.inflight lifecycles: every join of
// the wave, then its renews round-robin, then every release. Each
// segment is timed as one batch.
func probeMAC(res *result, cfg config, spec ctlSpec, ids []uint32, ln *lane, parent int32) {
	sp := ln.begin("probe/mac", parent)
	defer ln.end(sp)
	wave := spec.inflight
	if wave == 0 {
		wave = spec.workers
	}
	ctrl := mac.NewController(mac.ISM24GHz())
	frame := func(msg any) []byte {
		b, err := mac.Marshal(msg)
		if err != nil {
			panic(err) // fixed, well-formed messages
		}
		return b
	}
	var joinNS, renewNS, releaseNS []float64
	var joins, rejects, ops int
	var arena []byte
	now := 0.0
	handle := func(raw []byte) []byte {
		now += 1e-6
		mark := len(arena)
		out, err := ctrl.HandleAtAppend(arena, raw, now)
		if err != nil {
			res.failf(1, "mac replay: %v", err)
			return nil
		}
		arena = out
		ops++
		return out[mark:]
	}
	before := snapRuntime()
	for lo := 0; lo < len(ids); lo += wave {
		batch := ids[lo:min(lo+wave, len(ids))]
		reqs := make([][]byte, len(batch))
		for i, id := range batch {
			reqs[i] = frame(mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: nodeDemandBps})
		}
		arena = arena[:0]
		replies := make([][]byte, len(batch))
		s := ln.begin("mac.HandleAtAppend/join", sp.id)
		t0 := time.Now()
		for i, r := range reqs {
			replies[i] = handle(r)
		}
		joinNS = append(joinNS, float64(time.Since(t0))/float64(len(batch)))
		ln.endCount(s, int64(len(batch)))
		joins += len(batch)
		seq := make([]uint32, len(batch))
		for i, reply := range replies {
			seq[i] = 1
			msg, err := mac.Unmarshal(reply)
			if rej, ok := msg.(mac.RejectMsg); err == nil && ok {
				rejects++
				seq[i] = 2
				handle(frame(mac.ShareConfirmMsg{NodeID: batch[i], Seq: 2, ShareHz: rej.ShareHz,
					WidthHz: mac.BandwidthForRate(nodeDemandBps), Harmonic: rej.Harmonic}))
			}
		}
		for i, id := range batch {
			reqs[i] = frame(mac.RenewMsg{NodeID: id})
		}
		if spec.renews > 0 {
			arena = arena[:0]
			s = ln.begin("mac.HandleAtAppend/renew", sp.id)
			t0 = time.Now()
			for r := 0; r < spec.renews; r++ {
				arena = arena[:0]
				for i, raw := range reqs {
					seq[i]++
					binary.LittleEndian.PutUint32(raw[5:9], seq[i])
					handle(raw)
				}
			}
			renewNS = append(renewNS, float64(time.Since(t0))/float64(len(batch)*spec.renews))
			ln.endCount(s, int64(len(batch)*spec.renews))
		}
		for i, id := range batch {
			reqs[i] = frame(mac.ReleaseMsg{NodeID: id, Seq: seq[i] + 1})
		}
		arena = arena[:0]
		s = ln.begin("mac.HandleAtAppend/release", sp.id)
		t0 = time.Now()
		for _, raw := range reqs {
			handle(raw)
		}
		releaseNS = append(releaseNS, float64(time.Since(t0))/float64(len(batch)))
		ln.endCount(s, int64(len(batch)))
		ctrl.TakeNotifications()
	}
	mallocs := snapRuntime().mallocs - before.mallocs
	res.set("mac.join_ns", joinNS...)
	res.set("mac.renew_ns", renewNS...)
	res.set("mac.release_ns", releaseNS...)
	res.set("mac.allocs_per_op", float64(mallocs)/float64(max(ops, 1)))
	res.set("mac.reject_frac", float64(rejects)/float64(max(joins, 1)))
	res.check(ctrl.AuditBooks() == nil && ctrl.LeaseCount() == 0, "mac replay left %d leases or inconsistent books", ctrl.LeaseCount())

	// AuditBooks over a full band: 200 FDM owners and the rest sharing.
	leases := cfg.count(8000, 50)
	for i := 0; i < leases; i++ {
		id := uint32(1 + i)
		reply := handle(frame(mac.JoinRequest{NodeID: id, Seq: 1, DemandBps: nodeDemandBps}))
		arena = arena[:0]
		if msg, err := mac.Unmarshal(reply); err == nil {
			if rej, ok := msg.(mac.RejectMsg); ok {
				handle(frame(mac.ShareConfirmMsg{NodeID: id, Seq: 2, ShareHz: rej.ShareHz,
					WidthHz: mac.BandwidthForRate(nodeDemandBps), Harmonic: rej.Harmonic}))
				arena = arena[:0]
			}
		}
	}
	var auditErr error
	res.set("mac.audit_ms", perCall(probeBatches, 1, 1e3, func() { auditErr = ctrl.AuditBooks() })...)
	res.check(auditErr == nil && ctrl.LeaseCount() == leases, "audit probe: %d of %d leases, %v", ctrl.LeaseCount(), leases, auditErr)
}

func runCtlRenew(w workloadDef, cfg config, tr *tracer) *result {
	return runCtl(w, cfg, tr, ctlSpec{lifecycles: cfg.count(320, 8), renews: 200, inflight: 256, repeats: 32})
}

func runCtlChurn(w workloadDef, cfg config, tr *tracer) *result {
	return runCtl(w, cfg, tr, ctlSpec{lifecycles: cfg.count(16000, 64), renews: 0, inflight: 256, repeats: 32})
}

func runCtlPaced(w workloadDef, cfg config, tr *tracer) *result {
	return runCtl(w, cfg, tr, ctlSpec{renews: 3, rate: 20000, durationS: max(0.1*cfg.Scale, 0.05), gapS: 0.002,
		limitUS: 5000, workers: 256, repeats: 100})
}
