package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"mmx"
	"mmx/internal/stats"
)

// The four simulator workloads share one field: constant node density
// (side = 6000·√(n/1000) m, so the audible neighbourhood around an AP
// stays bounded as n grows), the sparse coupling core from the first
// join, no lease keepalive cycle, 1 Mb/s telemetry nodes.

const nodeDemandBps = 1e6

// simSpec sizes one fleet and says how a repeat drives it.
type simSpec struct {
	nodes   int
	aps     int     // 1, or a square number laid out as a grid
	teleS   float64 // mean telemetry interval
	walkers int     // blockers walking 50–200 m from AP 0

	duration, envStep float64 // Run arguments of one repeat
	pairs             int     // leave+join pairs scheduled per repeat
	moves             int     // nodes carried across a cell boundary before each repeat
	repeats           int     // measured repeats per fleet at refSeconds

	// ticks marks the env-tick workload, where the cost of one
	// environment tick (simnet.tick_ms) is native.
	ticks bool
	// frames marks the frame-dispatch workload, where sim_frames_per_s
	// and allocations per frame are native.
	frames bool
}

// simInputs is everything a fleet is built from, generated from the seed.
type simInputs struct {
	side             float64
	aps              [][2]float64
	ids              []uint32
	poses            []mmx.Pose
	envSeed, netSeed uint64
}

func (in *simInputs) grid() int { return int(math.Sqrt(float64(len(in.aps)))) }

func (in *simInputs) cellOf(x, y float64) (cx, cy int) {
	g := in.grid()
	w := in.side / float64(g)
	return min(int(x/w), g-1), min(int(y/w), g-1)
}

// place draws a pose uniformly in the field, facing the AP of its grid
// cell (the nearest AP).
func (in *simInputs) place(rng *stats.RNG) mmx.Pose {
	x, y := rng.Uniform(1, in.side-1), rng.Uniform(1, in.side-1)
	cx, cy := in.cellOf(x, y)
	ap := in.aps[cy*in.grid()+cx]
	return mmx.Facing(x, y, ap[0], ap[1])
}

func genSimInputs(seed uint64, spec simSpec) *simInputs {
	rng := stats.NewRNG(seed ^ 0x5157a7e5)
	in := &simInputs{
		side:    6000 * math.Sqrt(float64(spec.nodes)/1000),
		envSeed: rng.Uint64(),
		netSeed: rng.Uint64(),
	}
	g := int(math.Sqrt(float64(spec.aps)))
	for k := 0; k < g*g; k++ {
		in.aps = append(in.aps, [2]float64{
			(float64(k%g) + 0.5) * in.side / float64(g),
			(float64(k/g) + 0.5) * in.side / float64(g),
		})
	}
	base := uint32(1 + rng.Intn(1<<24))
	in.ids = make([]uint32, spec.nodes)
	in.poses = make([]mmx.Pose, spec.nodes)
	for i := range in.ids {
		in.ids[i] = base + uint32(i)
		in.poses[i] = in.place(rng)
	}
	return in
}

// newNetwork creates the empty deployment: field, APs, reuse plan,
// roaming policy, coupling and lease configuration.
func newNetwork(in *simInputs) (*mmx.Environment, *mmx.Network, error) {
	env := mmx.NewEnvironment(in.side, in.side, in.envSeed)
	mid := in.side / 2
	if len(in.aps) == 1 {
		nw := env.NewNetwork(mmx.Pose{X: in.aps[0][0], Y: in.aps[0][1]}, in.netSeed)
		nw.SetCouplingMode(mmx.CouplingSparse)
		nw.SetLeaseTTL(0, 0)
		return env, nw, nil
	}
	nw := env.NewNetwork(mmx.Facing(in.aps[0][0], in.aps[0][1], mid, mid), in.netSeed)
	for _, ap := range in.aps[1:] {
		if _, err := nw.AddAP(mmx.Facing(ap[0], ap[1], mid, mid)); err != nil {
			return nil, nil, err
		}
	}
	if err := nw.PlanReuse(4); err != nil {
		return nil, nil, err
	}
	nw.SetRoamingPolicy(&mmx.RoamPolicy{HysteresisDB: 3})
	nw.SetCouplingMode(mmx.CouplingSparse)
	nw.SetLeaseTTL(0, 0)
	return env, nw, nil
}

func hashInfo(h io.Writer, info mmx.NodeInfo) {
	fmt.Fprintf(h, "%d %x %x %t %d\n", info.ID,
		math.Float64bits(info.ChannelHz), math.Float64bits(info.WidthHz), info.SharedViaSDM, info.AP)
}

// admitChunk is how many joins one timed stretch of an admission covers
// (25-50 ms at the default size).
const admitChunk = 500

// admit joins every node of the inputs, one span per Join and one
// stretch of seg per admitChunk joins, and returns the hash of every
// admission's outcome.
func admit(nw *mmx.Network, in *simInputs, teleS float64, ln *lane, parent int32, seg *segments) (uint64, error) {
	h := fnv.New64a()
	traffic := mmx.TelemetryTraffic(teleS)
	for i, id := range in.ids {
		sp := ln.begin("simnet.Join", parent)
		info, err := nw.Join(id, in.poses[i], nodeDemandBps, traffic)
		ln.end(sp)
		if err != nil {
			return 0, fmt.Errorf("join %d: %w", id, err)
		}
		hashInfo(h, info)
		if (i+1)%admitChunk == 0 || i == len(in.ids)-1 {
			seg.mark()
		}
	}
	return h.Sum64(), nil
}

// walker places the k-th of n people on a ring 50–200 m around the AP,
// walking along the ring at 1.5 m/s — right across the sight lines.
func walker(k, n int, ap [2]float64) (x, y, vx, vy float64) {
	ang := 2 * math.Pi * float64(k) / float64(n)
	r := 50 + 150*float64(k)/float64(max(n-1, 1))
	return ap[0] + r*math.Cos(ang), ap[1] + r*math.Sin(ang), -1.5 * math.Sin(ang), 1.5 * math.Cos(ang)
}

// simFleet is a built deployment plus the driver's view of its
// membership, which the seeded churn and moves are drawn from.
type simFleet struct {
	in     *simInputs
	spec   simSpec
	nw     *mmx.Network
	live   []uint32
	pose   map[uint32]mmx.Pose
	nextID uint32
	// fp hashes every admission's outcome; fleets built from the same
	// inputs must agree on it.
	fp uint64
	// coldMS and warmMS time the first Reports after the last join and
	// the same call again.
	coldMS, warmMS float64
}

// buildFleet admits every node, places the walkers and settles the
// post-join picture with Reports; seg times it in stretches.
func buildFleet(in *simInputs, spec simSpec, ln *lane, parent int32, seg *segments) (*simFleet, error) {
	env, nw, err := newNetwork(in)
	if err != nil {
		return nil, err
	}
	f := &simFleet{in: in, spec: spec, nw: nw,
		live: append([]uint32(nil), in.ids...), pose: make(map[uint32]mmx.Pose, len(in.ids)),
		nextID: in.ids[len(in.ids)-1] + 1}
	if f.fp, err = admit(nw, in, spec.teleS, ln, parent, seg); err != nil {
		return nil, err
	}
	for i, id := range in.ids {
		f.pose[id] = in.poses[i]
	}
	for k := 0; k < spec.walkers; k++ {
		env.AddBlocker(walker(k, spec.walkers, in.aps[0]))
	}
	var members int
	f.coldMS, f.warmMS, members = timeReports(nw, ln, parent)
	seg.mark()
	if members != len(in.ids) {
		return nil, fmt.Errorf("built %d members, want %d", members, len(in.ids))
	}
	return f, nil
}

// timeReports calls Reports twice: cold, then warm.
func timeReports(nw *mmx.Network, ln *lane, parent int32) (coldMS, warmMS float64, members int) {
	timed := func(name string) float64 {
		t0 := time.Now()
		sp := ln.begin(name, parent)
		members = len(nw.Reports())
		ln.end(sp)
		return time.Since(t0).Seconds() * 1e3
	}
	coldMS = timed("simnet.Reports/cold")
	warmMS = timed("simnet.Reports/warm")
	return coldMS, warmMS, members
}

// simCounts are the simulated statistics that must repeat exactly for
// a seed.
type simCounts struct {
	sent, lost, dropped, outage            int
	joins, leaves, joinsFailed, roams, bad int
}

func (c *simCounts) add(st mmx.RunStats) (frames int) {
	for i := range st.PerNode {
		p := &st.PerNode[i]
		frames += p.FramesSent
		c.lost += p.FramesLost
		c.dropped += p.FramesDropped
		c.outage += p.FramesOutage
	}
	c.sent += frames
	c.joins += st.Joins
	c.leaves += st.Leaves
	c.joinsFailed += st.JoinsFailed
	c.roams += st.Roams
	c.bad += st.RoamsFailed
	return frames
}

// simCountNames are the per-layer metrics that carry simCounts, in the
// order values returns them.
var simCountNames = []string{
	"simnet.frames_sent", "simnet.frames_lost", "simnet.frames_dropped", "simnet.frames_outage",
	"simnet.joins", "simnet.leaves", "simnet.joins_failed", "simnet.roams", "simnet.roams_failed",
}

func (c *simCounts) report(res *result) {
	for i, v := range []int{c.sent, c.lost, c.dropped, c.outage, c.joins, c.leaves, c.joinsFailed, c.roams, c.bad} {
		res.set(simCountNames[i], float64(v))
	}
}

// repeatOut is what one Run repeat produced.
type repeatOut struct {
	wallS, cpuS float64
	mallocs     uint64
	frames      int
	st          mmx.RunStats
	fp          uint64
}

// repeat prepares repeat k (seeded moves and churn plan, drawn from the
// fleet's live membership) and times one Run.
func (f *simFleet) repeat(seed uint64, k int, ln *lane, parent int32, res *result, counts *simCounts) repeatOut {
	rng := stats.NewRNG(seed ^ uint64(k+1)*0x9E3779B97F4A7C15)
	spec := f.spec
	phase := ln.begin("prepare", parent)
	for m := 0; m < spec.moves; m++ {
		id := f.live[rng.Intn(len(f.live))]
		to := f.acrossBoundary(f.pose[id], rng)
		sp := ln.begin("simnet.MoveNode", phase.id)
		ok := f.nw.MoveNode(id, to)
		ln.end(sp)
		res.check(ok, "MoveNode(%d) found no such node", id)
		f.pose[id] = to
	}
	// Leavers are drawn from the members present when the repeat starts,
	// so a leave never names a node whose join is still in the plan.
	joined := make([]uint32, 0, spec.pairs)
	for p := 0; p < spec.pairs && len(f.live) > 1; p++ {
		at := spec.duration * (0.01 + 0.9*(float64(p)+rng.Float64())/float64(spec.pairs))
		i := rng.Intn(len(f.live))
		leaver := f.live[i]
		f.live[i] = f.live[len(f.live)-1]
		f.live = f.live[:len(f.live)-1]
		delete(f.pose, leaver)
		f.nw.ScheduleLeave(at, leaver)
		id, pose := f.nextID, f.in.place(rng)
		f.nextID++
		f.nw.ScheduleJoin(at+0.005, id, pose, nodeDemandBps, mmx.TelemetryTraffic(spec.teleS))
		f.pose[id] = pose
		joined = append(joined, id)
	}
	f.live = append(f.live, joined...)
	ln.end(phase)

	before := snapRuntime()
	t0 := time.Now()
	sp := ln.begin("simnet.Run", parent)
	st := f.nw.Run(spec.duration, spec.envStep, 0)
	out := repeatOut{wallS: time.Since(t0).Seconds(), st: st}
	out.frames = counts.add(st)
	ln.endCount(sp, int64(out.frames))
	after := snapRuntime()
	out.cpuS = after.cpuS - before.cpuS
	out.mallocs = after.mallocs - before.mallocs

	out.fp = hashRunStats(st)

	res.attempt(2 * len(joined))
	res.failf(2*len(joined)-st.Joins-st.Leaves+st.JoinsFailed,
		"repeat %d: churn incomplete: %d joins, %d leaves, %d failed of %d pairs",
		k, st.Joins, st.Leaves, st.JoinsFailed, len(joined))
	return out
}

// hashRunStats folds every exported statistic of a run into 64 bits:
// the per-node outcomes in order, the control plane's counters, the
// membership and roam counts and each AP's share. (Formatting the whole
// struct with %+v says the same and costs 50 ms per repeat at 12 000
// nodes; this costs one.)
func hashRunStats(st mmx.RunStats) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i := func(v int) { u(uint64(v)) }
	f := func(v float64) { u(math.Float64bits(v)) }
	f(st.Duration)
	for k := range st.PerNode {
		p := &st.PerNode[k]
		u(uint64(p.ID))
		i(p.FramesSent)
		i(p.FramesLost)
		i(p.FramesDropped)
		i(p.FramesOutage)
		f(p.BitsDelivered)
		f(p.MinSINRdB)
		f(p.MeanSINRdB)
		i(p.SINRSamples)
		f(p.OutageFraction)
		f(p.AirtimeFraction)
		f(p.MeanDelayS)
		f(p.JoinedAtS)
		f(p.LeftAtS)
		f(p.ActiveS)
	}
	c := st.Control
	for _, v := range []int{c.RenewsSent, c.RenewsFailed, c.Rejoins, c.Resyncs, c.LeaseExpiries, c.Promotions,
		c.Crashes, c.Reboots, c.APRestarts, st.Joins, st.Leaves, st.JoinsFailed, st.Roams, st.RoamsFailed} {
		i(v)
	}
	for _, ap := range st.PerAP {
		for _, v := range []int{ap.AP, ap.Joins, ap.Leaves, ap.RoamsIn, ap.RoamsOut, ap.LeaseExpiries, ap.Members} {
			i(v)
		}
	}
	return h.Sum64()
}

// acrossBoundary returns a pose in a grid cell next to p's, facing that
// cell's AP, so the roaming policy finds a strictly closer, stronger AP.
func (f *simFleet) acrossBoundary(p mmx.Pose, rng *stats.RNG) mmx.Pose {
	in := f.in
	g := in.grid()
	cx, cy := in.cellOf(p.X, p.Y)
	var next [][2]int
	for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		if x, y := cx+d[0], cy+d[1]; x >= 0 && x < g && y >= 0 && y < g {
			next = append(next, [2]int{x, y})
		}
	}
	if len(next) == 0 {
		return p
	}
	to := next[rng.Intn(len(next))]
	w := in.side / float64(g)
	x := (float64(to[0]) + rng.Uniform(0.05, 0.95)) * w
	y := (float64(to[1]) + rng.Uniform(0.05, 0.95)) * w
	ap := in.aps[to[1]*g+to[0]]
	return mmx.Facing(x, y, ap[0], ap[1])
}

// roamTicks is how many roam checks one repeat runs at the policy's
// default 0.2 s interval.
func (s simSpec) roamTicks() float64 { return math.Floor(s.duration / 0.2) }

// simFleets is how many times a fleet workload builds its fleet and runs
// its repeat sequence.
const simFleets = 3

// runSimFleet is the body of sim-traffic, sim-blockers and sim-multiap.
// The fleet is built simFleets times from the same inputs and each
// fleet runs the warm-up repeat and then the same seeded sequence of
// measured repeats, so repeat k is the same work on every fleet: every
// fleet must produce the statistics fleet 0 did (the same seed run
// again), and the end-to-end figures are the work of one sequence over
// its undisturbed time, the fastest fleet through each repeat. Set-up
// is timed the same way, in stretches of admitChunk joins. On a traced
// run the middle fleet records spans and the end-to-end numbers come
// from the others.
func runSimFleet(w workloadDef, cfg config, tr *tracer, spec simSpec) *result {
	res := newResult(w, cfg)
	begin := time.Now()
	ln := tr.lane(2 * spec.nodes)
	root := ln.begin(w.Name, 0)
	defer func() {
		ln.end(root)
		res.finish(w, cfg, time.Since(begin), tr)
	}()

	n := cfg.repeats(spec.repeats)
	res.Repeats, res.Warmup = n, 1
	var f *simFleet
	var setups, walls [][]float64 // per untraced fleet: set-up stretches, Run wall per measured repeat
	var setupS, heapB, warmS, wallS, cpuS, rate, fps, allocs, tracedWall []float64
	var counts simCounts // fleet 0's measured repeats
	var runFP []uint64   // fleet 0's statistics hash per repeat, warm-up first
	for b := 0; b < simFleets; b++ {
		var fl *lane
		if cfg.Traced && b == 1 {
			fl = ln
		}
		f = nil
		base := liveHeap()
		seg := startSegments()
		sp := fl.begin("setup", root.id)
		in := genSimInputs(cfg.Seed, spec)
		built, err := buildFleet(in, spec, fl, sp.id, seg)
		fl.end(sp)
		res.attempt(spec.nodes)
		if err != nil {
			res.failf(spec.nodes, "setup %d: %v", b, err)
			return res
		}
		f = built
		heapB = append(heapB, float64(liveHeap()-base)/float64(spec.nodes))
		if b == 0 {
			runFP = append(runFP, f.fp)
		}
		res.check(f.fp == runFP[0], "fleet %d admitted differently from fleet 0 on the same inputs", b)
		if fl == nil {
			setups = append(setups, seg.s)
			setupS = append(setupS, seg.total())
		}

		var discard simCounts
		var wall []float64
		for k := 0; k <= n; k++ { // repeat 0 is the discarded warm-up
			tally := &discard
			if b == 0 && k > 0 {
				tally = &counts
			}
			name := "repeat"
			if k == 0 {
				name = "warmup"
			}
			sp := fl.begin(name, root.id)
			out := f.repeat(cfg.Seed, k, fl, sp.id, res, tally)
			fl.end(sp)
			if b == 0 {
				runFP = append(runFP, out.fp)
			}
			res.check(out.fp == runFP[k+1], "fleet %d ran repeat %d of seed %d to other statistics than fleet 0", b, k, cfg.Seed)
			if spec.aps > 1 {
				err := f.nw.ValidateSpectrum()
				res.check(err == nil, "fleet %d repeat %d: ValidateSpectrum: %v", b, k, err)
			}
			switch {
			case k == 0:
				warmS = append(warmS, out.wallS)
			case fl != nil:
				tracedWall = append(tracedWall, out.wallS)
			default:
				wall = append(wall, out.wallS)
				cpuS = append(cpuS, out.cpuS)
				rate = append(rate, spec.duration/out.wallS)
				fps = append(fps, float64(out.frames)/out.wallS)
				if out.frames > 0 {
					allocs = append(allocs, float64(out.mallocs)/float64(out.frames))
				}
			}
		}
		if fl == nil {
			walls = append(walls, wall)
			wallS = append(wallS, wall...)
		}
	}
	res.SetupRepeats = len(setupS)
	fp := fnv.New64a()
	for _, v := range runFP {
		fmt.Fprintf(fp, "%x", v)
	}
	res.Fingerprint = fmt.Sprintf("%016x", fp.Sum64())

	t0 := time.Now()
	sp := ln.begin("simnet.ValidateSpectrum", root.id)
	err := f.nw.ValidateSpectrum()
	ln.end(sp)
	res.set("simnet.validate_ms", time.Since(t0).Seconds()*1e3)
	res.check(err == nil, "ValidateSpectrum after the run: %v", err)
	members := len(f.nw.Reports())
	res.check(members == spec.nodes, "membership drifted to %d of %d nodes", members, spec.nodes)
	if spec.moves > 0 {
		res.check(counts.roams > 0, "no node roamed although %d were moved across a cell boundary per repeat", spec.moves)
	}

	pass := undisturbed(walls)
	res.setValue("setup_s", undisturbed(setups), setupS)
	res.set("heap_b_per_node", heapB...)
	res.set("simnet.reports_cold_ms", f.coldMS)
	res.set("simnet.reports_warm_ms", f.warmMS)
	res.setValue("sim_rate_x", spec.duration*float64(n)/pass, rate)
	if spec.frames {
		res.setValue("sim_frames_per_s", float64(counts.sent)/pass, fps)
		res.set("simnet.run_allocs_per_frame", allocs...)
	}
	counts.report(res)
	res.set("simnet.run_cpu_s", sum(cpuS)/float64(len(walls)))
	res.set("simnet.run_par", sum(cpuS)/sum(wallS)/float64(runtime.GOMAXPROCS(0)))
	if spec.ticks {
		ticks := math.Floor(spec.duration / spec.envStep)
		perTick := make([]float64, len(wallS))
		for i, s := range wallS {
			perTick[i] = s * 1e3 / ticks
		}
		res.setValue("simnet.tick_ms", pass*1e3/(ticks*float64(n)), perTick)
	}
	if cfg.Traced {
		res.setPercentiles("simnet.join_us_p50", "simnet.join_us_p99", tr.durationsUS("simnet.Join"))
		res.set("trace_overhead_frac", median(tracedWall)/median(wallS)-1)
		if spec.aps > 1 {
			// The roam screen's price: the warm-up repeat against the same
			// repeat on one more fleet with roaming off.
			sp := ln.begin("probe/no-roaming", root.id)
			plain, err := buildFleet(genSimInputs(cfg.Seed, spec), spec, nil, 0, startSegments())
			if err == nil {
				plain.nw.SetRoamingPolicy(nil)
				out := plain.repeat(cfg.Seed, 0, nil, 0, res, &simCounts{})
				res.set("simnet.roam_screen_ms", (best(warmS, "lower")-out.wallS)*1e3/spec.roamTicks())
			}
			ln.end(sp)
			res.check(err == nil, "no-roaming fleet: %v", err)
		}
		probeLinkLayers(res, f.in, ln, root.id)
	}
	return res
}

func runSimTraffic(w workloadDef, cfg config, tr *tracer) *result {
	return runSimFleet(w, cfg, tr, simSpec{
		nodes: cfg.count(12000, 60), aps: 1, teleS: 0.1,
		duration: 2, envStep: 1, pairs: cfg.count(16, 2), repeats: 16, frames: true,
	})
}

func runSimBlockers(w workloadDef, cfg config, tr *tracer) *result {
	return runSimFleet(w, cfg, tr, simSpec{
		nodes: cfg.count(12000, 60), aps: 1, teleS: 5, walkers: cfg.count(8, 1),
		duration: 1, envStep: 0.05, repeats: 3, ticks: true,
	})
}

func runSimMultiAP(w workloadDef, cfg config, tr *tracer) *result {
	return runSimFleet(w, cfg, tr, simSpec{
		nodes: cfg.count(12000, 160), aps: 16, teleS: 5, walkers: cfg.count(4, 1),
		duration: 1, envStep: 0.25, pairs: cfg.count(16, 2), moves: cfg.count(120, 8), repeats: 3,
	})
}

// runSimAdmit times nothing but admission: each repeat builds a fresh
// Environment and Network and joins every node. The repeats are
// identical in configuration, so every one must admit identically, and
// admit_per_s is the fleet over the undisturbed time of one admission,
// the fastest repeat through each stretch of admitChunk joins.
func runSimAdmit(w workloadDef, cfg config, tr *tracer) *result {
	res := newResult(w, cfg)
	begin := time.Now()
	spec := simSpec{nodes: cfg.count(12000, 60), aps: 1, teleS: 5}
	ln := tr.lane(8 * spec.nodes)
	root := ln.begin(w.Name, 0)
	defer func() {
		ln.end(root)
		res.finish(w, cfg, time.Since(begin), tr)
	}()

	// There is no fleet to build ahead of the measurement: set-up is
	// generating the inputs and creating the empty deployment. It is
	// timed before the first repeat and again after every repeat, so that
	// the samples spread over the run the way the repeats do.
	var setupS []float64
	setup := func() *simInputs {
		t0 := time.Now()
		sp := ln.begin("setup", root.id)
		in := genSimInputs(cfg.Seed, spec)
		_, _, err := newNetwork(in)
		ln.end(sp)
		setupS = append(setupS, time.Since(t0).Seconds())
		res.check(err == nil, "setup %d: %v", len(setupS), err)
		return in
	}
	in := setup()

	n := cfg.repeats(12)
	res.Repeats = n
	var passes [][]float64 // per untraced repeat: the admission's stretches
	var perS, heapB, allocs, cold, warm, validate, tracedPerS []float64
	var fp0 uint64
	for k := 0; k <= n; k++ { // repeat 0 is the discarded warm-up
		var rl *lane
		if cfg.Traced && k > 0 && k%2 == 0 {
			rl = ln
		}
		base := liveHeap()
		before := snapRuntime()
		seg := startSegments()
		sp := rl.begin("repeat", root.id)
		_, nw, err := newNetwork(in)
		var fp uint64
		if err == nil {
			fp, err = admit(nw, in, spec.teleS, rl, sp.id, seg)
		}
		rl.end(sp)
		wall := seg.total()
		mallocs := snapRuntime().mallocs - before.mallocs
		res.attempt(spec.nodes)
		if err != nil {
			res.failf(spec.nodes, "repeat %d: %v", k, err)
			return res
		}
		heap := float64(liveHeap()-base) / float64(spec.nodes)

		t0 := time.Now()
		err = nw.ValidateSpectrum()
		validateMS := time.Since(t0).Seconds() * 1e3
		res.check(err == nil, "repeat %d: ValidateSpectrum: %v", k, err)
		coldMS, warmMS, members := timeReports(nw, rl, sp.id)
		res.check(members == spec.nodes, "repeat %d: %d members of %d", k, members, spec.nodes)
		h := fnv.New64a()
		fmt.Fprintf(h, "%x %+v", fp, nw.Reports())
		setup()
		setup()
		if k == 0 {
			fp0 = h.Sum64()
			continue
		}
		res.check(h.Sum64() == fp0, "repeat %d admitted or evaluated differently from repeat 0", k)
		if rl != nil {
			tracedPerS = append(tracedPerS, float64(spec.nodes)/wall)
			continue
		}
		passes = append(passes, seg.s)
		perS = append(perS, float64(spec.nodes)/wall)
		heapB = append(heapB, heap)
		allocs = append(allocs, float64(mallocs)/float64(spec.nodes))
		cold, warm, validate = append(cold, coldMS), append(warm, warmMS), append(validate, validateMS)
	}
	res.Fingerprint = fmt.Sprintf("%016x", fp0)
	res.SetupRepeats, res.Warmup = len(setupS), 1
	res.set("setup_s", setupS...)
	res.setValue("admit_per_s", float64(spec.nodes)/undisturbed(passes), perS)
	res.set("heap_b_per_node", heapB...)
	res.set("simnet.join_allocs", allocs...)
	res.set("simnet.reports_cold_ms", cold...)
	res.set("simnet.reports_warm_ms", warm...)
	res.set("simnet.validate_ms", validate...)
	(&simCounts{joins: spec.nodes * n}).report(res)
	if cfg.Traced {
		res.setPercentiles("simnet.join_us_p50", "simnet.join_us_p99", tr.durationsUS("simnet.Join"))
		res.set("trace_overhead_frac", median(perS)/median(tracedPerS)-1)
		probeLinkLayers(res, in, ln, root.id)
	}
	return res
}
