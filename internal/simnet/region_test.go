package simnet

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/faults"
	"mmx/internal/stats"
	"mmx/internal/units"
)

// TestRegionInvalidationSoundness is the safety property of region-scoped
// invalidation: after every environment step, every node whose link
// evaluation actually changed must be in the invalidated (evalStale) set.
// It drives three walkers on random-velocity walks through a room with an
// interior partition (so the swept capsules interact with reflected and
// penetrating corridors, not just direct lines) and cross-checks the
// dirty set against a full fresh re-evaluation of the whole membership
// before each settle. It also requires the invalidation to be genuinely
// partial — if the region path silently degenerated to stale-everything
// the property would hold vacuously.
func TestRegionInvalidationSoundness(t *testing.T) {
	// A hall-sized room: the walkers' swept corridors cover a small
	// fraction of it, so selective invalidation is observable (in the
	// 6x4 m lab three walkers' reflection corridors blanket the space).
	rng := stats.NewRNG(31)
	room := channel.NewRoom(20, 14, rng)
	room.AddInteriorWall(channel.Segment{
		A: channel.Vec2{X: 12, Y: 3}, B: channel.Vec2{X: 12, Y: 11},
	}, 8, 7)
	env := channel.NewEnvironment(room, units.ISM24GHzCenter)
	nw := New(env, channel.Pose{Pos: channel.Vec2{X: 0.5, Y: 7}}, 31)
	nw.cutoffDB = exactCutoffDB
	nw.SetCouplingMode(CouplingSparse)
	prng := stats.NewRNG(7)
	for i := 1; i <= 36; i++ {
		pos := channel.Vec2{X: prng.Uniform(1, 19), Y: prng.Uniform(1, 13)}
		pose := channel.Pose{Pos: pos, Orientation: prng.Uniform(-math.Pi, math.Pi)}
		if _, err := nw.Join(uint32(i), pose, 40e6, Telemetry(0.05)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	for k := 0; k < 3; k++ {
		env.AddBlocker(&channel.Blocker{
			Pos:    channel.Vec2{X: prng.Uniform(2, 18), Y: prng.Uniform(2, 12)},
			Radius: 0.2 + 0.05*float64(k),
			LossDB: 12,
			Vel:    channel.Vec2{X: prng.Uniform(-2, 2), Y: prng.Uniform(-2, 2)},
		})
	}
	rec := settledEvals(t, nw, "baseline")
	s := nw.sparse

	const steps = 150
	var tally regionTally
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			// Mid-walk, on the settled network, two blockers appear: one on
			// a node's sight line, which must stale that node (a degenerate
			// region is a newcomer, not a move), and one 0.5 µm outside
			// another node's sight line, which must not stale that one (the
			// leaf test runs the indicator's own arithmetic, no slack). The
			// second node is the first whose paths neither newcomer reaches.
			const radius = 0.2
			ap := nw.APs[0].Pose.Pos
			appear := func(at channel.Vec2) channel.SweptRegion {
				return channel.SweptRegion{Seg: channel.Segment{A: at, B: at}, Radius: radius}
			}
			beside := func(n *Node) channel.Vec2 {
				d := ap.Sub(n.Pose.Pos)
				normal := channel.Vec2{X: -d.Y, Y: d.X}.Scale((radius + 5e-7) / d.Len())
				return n.Pose.Pos.Add(d.Scale(0.5)).Add(normal)
			}
			shadowed := nw.Nodes[0]
			shadow := shadowed.Pose.Pos.Add(ap.Sub(shadowed.Pose.Pos).Scale(0.5))
			var grazed *Node
			for _, n := range nw.Nodes[1:] {
				if !pathsFlip(env, n.Pose.Pos, ap, appear(shadow)) && !pathsFlip(env, n.Pose.Pos, ap, appear(beside(n))) {
					grazed = n
					break
				}
			}
			if grazed == nil {
				t.Fatal("every node has a path one of the newcomers reaches")
			}
			env.AddBlocker(&channel.Blocker{Pos: shadow, Radius: radius, LossDB: 12})
			env.AddBlocker(&channel.Blocker{Pos: beside(grazed), Radius: radius, LossDB: 12})
			from := s.envEpoch
			s.syncEnv(nw)
			checkRegionStep(t, nw, rec, from, step, &tally)
			if !shadowed.sp.evalStale || grazed.sp.evalStale {
				t.Fatalf("blockers appeared mid-walk: node %d on a sight line staled %v (want true), node %d beside one staled %v (want false)",
					shadowed.ID, shadowed.sp.evalStale, grazed.ID, grazed.sp.evalStale)
			}
			rec = settledEvals(t, nw, "blockers appeared")
		}
		if step%25 == 24 { // re-aim the walkers so they roam the whole room
			for _, b := range env.Blockers {
				b.Vel = channel.Vec2{X: prng.Uniform(-2, 2), Y: prng.Uniform(-2, 2)}
			}
		}
		from := s.envEpoch
		env.Step(prng.Uniform(0.02, 0.1))
		s.syncEnv(nw) // marks the dirty set without settling it
		checkRegionStep(t, nw, rec, from, step, &tally)
		rec = settledEvals(t, nw, fmt.Sprintf("step %d", step)) // settle so the caches are fresh for the next step
	}
	if tally.servingChanged == 0 {
		t.Fatal("walk never changed any node's evaluation — the property was vacuous")
	}
	if tally.staled >= tally.population {
		t.Fatal("every node was staled on every step — region invalidation degenerated to stale-everything")
	}
	t.Logf("%d steps: %d of %d node-steps staled (%.1f%%), %d changed",
		steps, tally.staled, tally.population, 100*float64(tally.staled)/float64(tally.population), tally.changed)
}

// regionTally accumulates what checkRegionStep saw over a walk.
type regionTally struct {
	population, staled int // node-steps checked, and how many were evalStale
	changed            int // node-steps whose serving evaluation or some live cross-AP power changed
	servingChanged     int // serving-link evaluations a fresh trace read differently
	crossLive          int // live cross-AP powers checked: (node, foreign AP) listeners
	crossChanged       int // of those, the ones a fresh trace read differently
	watchOnly          int // live cross-AP powers held for a roam check alone (no edges)
	watchChanged       int // of those, the ones a fresh trace read differently
}

// plantWatches caches, through the roam check's own watch, the power of
// every node towards the per foreign APs nearest to it at which it has
// no victims — the links a roam check keeps for nodes it keeps screening.
func plantWatches(nw *Network, per int) {
	for _, n := range nw.Nodes {
		aps := slices.Clone(nw.APs)
		slices.SortStableFunc(aps, func(a, b *AccessPoint) int {
			return cmp.Compare(n.Pose.Pos.Dist(a.Pose.Pos), n.Pose.Pos.Dist(b.Pose.Pos))
		})
		left := per
		for _, ap := range aps {
			if left == 0 {
				break
			}
			if ap == n.AP || n.sp.cross != nil && n.sp.cross[ap.idx].edges > 0 {
				continue
			}
			nw.sparse.watch(n, ap.idx, nw.crossPower(n, ap.idx))
			left--
		}
	}
}

// checkRegionStep checks one syncEnv that consumed the environment's
// epochs since from, before the settle, both ways. rec is the serving
// evaluations recorded at the last settle (settledEvals). Scope: every
// node lies inside the listener box of each AP it listens to. Soundness:
// every value a node caches about the environment — its serving
// evaluation, as rec holds it whole, and its power at every foreign AP it
// has victims at or a roam check watches — either still equals a fresh
// trace or belongs to a node marked evalStale.
// Exactness: every node marked evalStale has a path leg on one of those
// links whose blockage one of the swept regions flips, by pathsFlip.
func checkRegionStep(t *testing.T, nw *Network, rec map[*Node]core.Evaluation, from uint64, step int, tally *regionTally) {
	t.Helper()
	regions, ok := nw.Env.SweptSince(from, nil)
	if !ok {
		t.Fatalf("step %d: the swept log no longer covers the epochs since %d", step, from)
	}
	for _, n := range nw.Nodes {
		tally.population++
		for j, b := range nw.sparse.listeners {
			if p := n.Pose.Pos; n.listens(j) && (p.X < b.lo.X || p.X > b.hi.X || p.Y < b.lo.Y || p.Y > b.hi.Y) {
				t.Fatalf("step %d: node %d at %+v listens to AP %d but lies outside its listener box %+v", step, n.ID, p, j, b)
			}
		}
		stale, changed, flipped := n.sp.evalStale, false, false
		linkFlips := func(ap *AccessPoint) {
			for _, k := range regions {
				flipped = flipped || pathsFlip(nw.Env, n.Pose.Pos, ap.Pose.Pos, k)
			}
		}
		if fresh := nw.evaluate(n, n.AP); fresh != rec[n] {
			tally.servingChanged++
			changed = true
			if !stale {
				t.Fatalf("step %d: node %d's evaluation changed but was not invalidated\nsettled %+v\nfresh   %+v",
					step, n.ID, rec[n], fresh)
			}
		}
		if stale {
			linkFlips(n.AP)
		}
		for a, x := range n.sp.cross {
			if !x.live() || a == n.AP.idx {
				continue
			}
			tally.crossLive++
			if x.edges == 0 {
				tally.watchOnly++
			}
			if fresh := nw.crossPower(n, a); fresh != x.power {
				tally.crossChanged++
				if x.edges == 0 {
					tally.watchChanged++
				}
				changed = true
				if !stale {
					t.Fatalf("step %d: node %d: cross[%d].power changed, not staled (cached %g, fresh %g, watched %v, %d edges)",
						step, n.ID, a, x.power, fresh, x.watch, x.edges)
				}
			}
			if stale {
				linkFlips(nw.APs[a])
			}
		}
		if changed {
			tally.changed++
		}
		if stale {
			tally.staled++
			if !flipped {
				t.Fatalf("step %d: node %d was staled, but no region flips the blockage of a leg on a link it listens on", step, n.ID)
			}
		}
	}
}

// pathsFlip is the Paths-based oracle of channel.BlockageFlips, as the
// channel package's tests hold it: does some leg of some path from tx to
// rx read blockageLossDB's indicator differently with the blocker at k's
// start (absent, when k is degenerate: a blocker that just appeared) and
// at its end? It recomputes the indicator from each path's Points.
func pathsFlip(env *channel.Environment, tx, rx channel.Vec2, k channel.SweptRegion) bool {
	for _, p := range env.Paths(tx, rx) {
		for i := 1; i < len(p.Points); i++ {
			leg := channel.Segment{A: p.Points[i-1], B: p.Points[i]}
			was := k.Seg.A != k.Seg.B && leg.DistanceTo(k.Seg.A) <= k.Radius
			if was != (leg.DistanceTo(k.Seg.B) <= k.Radius) {
				return true
			}
		}
	}
	return false
}

// apNetwork builds a network over env with one AP at each position,
// facing the middle of the room, a factor-reuse plan and the sparse core
// at the default cutoff.
func apNetwork(t testing.TB, env *channel.Environment, seed uint64, aps []channel.Vec2, reuse int) *Network {
	t.Helper()
	mid := channel.Vec2{X: env.Room.Width / 2, Y: env.Room.Height / 2}
	var nw *Network
	for k, pos := range aps {
		pose := channel.Pose{Pos: pos, Orientation: mid.Sub(pos).Angle()}
		if k == 0 {
			nw = New(env, pose, seed+1000)
		} else if _, err := nw.AddAP(pose); err != nil {
			t.Fatalf("AddAP %d: %v", k, err)
		}
	}
	if err := nw.PlanReuse(reuse); err != nil {
		t.Fatalf("PlanReuse(%d): %v", reuse, err)
	}
	nw.SetCouplingMode(CouplingSparse)
	return nw
}

// gridAPNetwork is apNetwork on a side×side m hall with a g×g grid of
// APs: on a large enough field a node is heard at some foreign APs and
// not at others.
func gridAPNetwork(t testing.TB, seed uint64, side float64, g, reuse int) *Network {
	t.Helper()
	room := channel.NewRoom(side, side, stats.NewRNG(seed))
	aps := make([]channel.Vec2, g*g)
	for k := range aps {
		aps[k] = channel.Vec2{X: (float64(k%g) + 0.5) * side / float64(g), Y: (float64(k/g) + 0.5) * side / float64(g)}
	}
	return apNetwork(t, channel.NewEnvironment(room, units.ISM24GHzCenter), seed, aps, reuse)
}

// joinUniform joins nodes 1..n at poses drawn uniformly over the room,
// each facing its nearest AP.
func joinUniform(t testing.TB, nw *Network, prng *stats.RNG, n int) {
	t.Helper()
	w, h := nw.Env.Room.Width, nw.Env.Room.Height
	for i := 1; i <= n; i++ {
		pos := channel.Vec2{X: prng.Uniform(1, w-1), Y: prng.Uniform(1, h-1)}
		pose := channel.Pose{Pos: pos, Orientation: nw.selectAP(pos).Pose.Pos.Sub(pos).Angle()}
		if _, err := nw.Join(uint32(i), pose, 1e6, Telemetry(5)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
}

// TestRegionInvalidationSoundnessMultiAP is the same property where the
// per-AP scoping of the mapping matters: 16 APs on a field large enough
// that a node is heard at some foreign APs and not at others, so a
// corridor towards AP j must reach j's shard and its cross listeners and
// may skip everyone else. Besides the serving evaluations it checks every
// live cross-AP power, which no Run-level fingerprint protects while the
// cross listeners happen to sit inside the shard's own corridors — among
// them the two each node holds for a roam check (plantWatches) towards its
// nearest foreign APs that hear no victim of it.
func TestRegionInvalidationSoundnessMultiAP(t *testing.T) {
	const (
		side  = 200.0
		nodes = 600
		steps = 60
	)
	nw := gridAPNetwork(t, 41, side, 4, 4)
	env := nw.Env
	env.Room.AddInteriorWall(channel.Segment{
		A: channel.Vec2{X: 90, Y: 40}, B: channel.Vec2{X: 90, Y: 150},
	}, 8, 7)
	prng := stats.NewRNG(43)
	joinUniform(t, nw, prng, nodes)
	plantWatches(nw, 2)
	aim := func(b *channel.Blocker) {
		b.Vel = channel.Vec2{X: prng.Uniform(-2, 2), Y: prng.Uniform(-2, 2)}
	}
	for k := 0; k < 4; k++ {
		b := &channel.Blocker{
			Pos:    channel.Vec2{X: prng.Uniform(20, side-20), Y: prng.Uniform(20, side-20)},
			Radius: 0.4 + 0.1*float64(k),
			LossDB: 12,
		}
		aim(b)
		env.AddBlocker(b)
	}
	rec := settledEvals(t, nw, "baseline")

	var tally regionTally
	for step := 0; step < steps; step++ {
		if step%15 == 14 {
			for _, b := range env.Blockers {
				aim(b)
			}
		}
		from := nw.sparse.envEpoch
		env.Step(prng.Uniform(0.02, 0.1))
		nw.sparse.syncEnv(nw)
		checkRegionStep(t, nw, rec, from, step, &tally)
		rec = settledEvals(t, nw, fmt.Sprintf("step %d", step))
	}
	if all := tally.population * (len(nw.APs) - 1); tally.crossLive == 0 || tally.crossLive >= all {
		t.Fatalf("%d of %d possible cross listeners — per-AP scoping has nothing to decide", tally.crossLive, all)
	}
	if tally.servingChanged == 0 || tally.crossChanged == 0 || tally.watchChanged == 0 {
		t.Fatalf("walk changed %d serving evaluations, %d cross-AP powers and %d watched ones — the property was vacuous",
			tally.servingChanged, tally.crossChanged, tally.watchChanged)
	}
	// Unfolding every capsule towards every AP for every node stales 99.6%
	// of the node-steps of this walk; scoped to listeners it is 73%, and
	// with the exact leaf test 15% (22% with the planted watches).
	if 10*tally.staled >= 8*tally.population {
		t.Fatalf("%d of %d node-steps staled — the mapping is not scoped to the APs a node listens to",
			tally.staled, tally.population)
	}
	t.Logf("%d cross listeners per step (%d watched alone); %d steps: %d serving and %d cross-AP power changes (%d watched); %d of %d node-steps staled (%.1f%%), %d changed",
		tally.crossLive/steps, tally.watchOnly/steps, steps, tally.servingChanged, tally.crossChanged, tally.watchChanged,
		tally.staled, tally.population, 100*float64(tally.staled)/float64(tally.population), tally.changed)
}

// TestRegionRunMatchesStaleEverything requires the region-invalidated
// sparse core and the lazy tick (re-rate and re-sample only the finished
// list) to be indistinguishable from the stale-everything baseline, which
// finishes, re-rates and re-samples every member on every tick. Stats,
// reports and rates must be byte-identical, not just close, at one worker
// and at eight, through a full Run with walking blockers, scheduled churn
// and node faults, and both must agree with the dense oracle afterwards.
// The Run walks the lazy sampler through each transition: a node Down
// when Run starts and rebooted mid-run, a crash and a reboot between two
// ticks and one spanning several, a leave and a rejoin under the same ID
// between two ticks, leaves for good and a mid-run joiner.
func TestRegionRunMatchesStaleEverything(t *testing.T) {
	type outcome struct {
		st      RunStats
		reports []Report
		rates   []float64
	}
	runOnce := func(workers int, stale bool) outcome {
		nw := tickNetwork(t, workers, stale)
		nw.Faults = faults.NewPlan().Crash(0.05, 7)
		nw.Run(0.1, 0.05, 10) // node 7 is Down when the measured Run starts
		if n := nw.nodeByID(7); n == nil || !n.Down {
			t.Fatal("node 7 should be Down between the Runs")
		}
		nw.Faults = faults.NewPlan().
			Crash(0.12, 5).Reboot(0.28, 5).
			Crash(0.21, 9).Reboot(0.24, 9).
			Reboot(0.33, 7)
		nw.ScheduleJoin(0.1, 40, churnPose(nw, 40), 40e6, Telemetry(0.05))
		nw.ScheduleLeave(0.15, 3)
		nw.ScheduleLeave(0.3, 11)
		nw.ScheduleLeave(0.36, 13)
		nw.ScheduleJoin(0.37, 13, churnPose(nw, 13), 40e6, Telemetry(0.05))
		st := nw.Run(0.5, 0.05, 10)
		if st.Joins != 2 || st.Leaves != 3 || st.Control.Crashes != 2 || st.Control.Reboots != 3 {
			t.Fatalf("workers %d stale %v: %d joins, %d leaves, %d crashes, %d reboots; want 2, 3, 2, 3",
				workers, stale, st.Joins, st.Leaves, st.Control.Crashes, st.Control.Reboots)
		}
		assertMatchesOracle(t, nw, fmt.Sprintf("workers %d stale %v", workers, stale))
		o := outcome{st: st, reports: nw.EvaluateSINR()}
		for _, n := range nw.Nodes {
			o.rates = append(o.rates, n.RateBps)
		}
		return o
	}
	// A node up and present all Run is observed at its start and at every
	// tick, whether or not a tick finished it. Each tick is scheduled
	// envStep after the last, and one at the horizon runs. Node 11, up
	// until it leaves for good at 0.3, is observed at the ticks before;
	// a tick at exactly 0.3 would run after the leave, planned earlier.
	samples, samples11 := 1, 1
	for at := 0.05; at <= 0.5; at += 0.05 {
		samples++
		if at < 0.3 {
			samples11++
		}
	}
	for _, workers := range []int{1, 8} {
		rs, ss := runOnce(workers, false), runOnce(workers, true)
		if rs.st.Joins != ss.st.Joins || rs.st.Leaves != ss.st.Leaves || rs.st.JoinsFailed != ss.st.JoinsFailed || rs.st.Control != ss.st.Control {
			t.Fatalf("workers %d: control outcomes diverged: region %+v stale %+v", workers, rs.st.Control, ss.st.Control)
		}
		if len(rs.st.PerNode) != len(ss.st.PerNode) {
			t.Fatalf("workers %d: per-node layout diverged: %d vs %d", workers, len(rs.st.PerNode), len(ss.st.PerNode))
		}
		for i, pn := range rs.st.PerNode {
			if pn != ss.st.PerNode[i] {
				t.Errorf("workers %d: node %d: stats not byte-identical\nregion %+v\nstale  %+v",
					workers, pn.ID, pn, ss.st.PerNode[i])
			}
			want := samples
			switch pn.ID {
			case 3, 5, 7, 9, 13, 40:
				continue
			case 11:
				want = samples11
			}
			if pn.SINRSamples != want {
				t.Errorf("workers %d: node %d has %d SINR samples, want %d: Run's start and every tick while present",
					workers, pn.ID, pn.SINRSamples, want)
			}
		}
		if !reflect.DeepEqual(rs.reports, ss.reports) {
			t.Errorf("workers %d: final reports not byte-identical\nregion %+v\nstale  %+v", workers, rs.reports, ss.reports)
		}
		if !reflect.DeepEqual(rs.rates, ss.rates) {
			t.Errorf("workers %d: final rates %v, stale %v", workers, rs.rates, ss.rates)
		}
	}
}

// TestSweptLogOverrunStalesEverything reaches syncEnv's other branch: a
// consumer that settles, then sleeps through more blocker motion than the
// environment's bounded swept log retains, cannot learn where the changes
// happened and must stale the whole membership. Its reports afterwards
// must be byte-identical to a twin that settled after every step (region
// invalidation all the way) and to the stale-everything hook.
func TestSweptLogOverrunStalesEverything(t *testing.T) {
	const (
		crowd = 64
		steps = 66 // × 64 moving blockers > the log's 4096 entries
	)
	build := func() *Network {
		nw := newTestNetwork(77)
		// Line of sight only: the every-step twin maps each of the >4096
		// capsules through every corridor, and a room's 16 reflection
		// corridors would make that take half a minute. Which branch
		// syncEnv takes does not depend on the path set.
		nw.Env.MaxReflections = 0
		nw.cutoffDB = exactCutoffDB
		nw.SetCouplingMode(CouplingSparse)
		for i := 1; i <= 12; i++ {
			if _, err := nw.Join(uint32(i), churnPose(nw, uint32(i)), 40e6, Telemetry(0.05)); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		// A crowd, so the log overruns within a few dozen steps.
		prng := stats.NewRNG(5)
		for k := 0; k < crowd; k++ {
			nw.Env.AddBlocker(&channel.Blocker{
				Pos:    channel.Vec2{X: prng.Uniform(0.5, 5.5), Y: prng.Uniform(0.5, 3.5)},
				Radius: 0.1, LossDB: 12,
				Vel: channel.Vec2{X: prng.Uniform(-1, 1), Y: prng.Uniform(-1, 1)},
			})
		}
		nw.EvaluateSINR() // first settle: caches fresh, envEpoch current
		return nw
	}
	lazy, eager, stale := build(), build(), build()
	stale.staleEveryTick = true
	settled := lazy.sparse.envEpoch
	for i := 0; i < steps; i++ {
		for _, nw := range []*Network{lazy, eager, stale} {
			nw.Env.Step(0.02)
		}
		eager.EvaluateSINR()
	}
	if _, ok := lazy.Env.SweptSince(settled, nil); ok {
		t.Fatal("swept log still covers the lazy consumer's span — the fallback branch was not reached")
	}
	if _, ok := eager.Env.SweptSince(eager.sparse.envEpoch, nil); !ok {
		t.Fatal("the every-step consumer fell off the swept log too")
	}
	want := eager.EvaluateSINR()
	for name, nw := range map[string]*Network{"lazy": lazy, "stale-everything": stale} {
		got := nw.EvaluateSINR()
		if len(got) != len(want) {
			t.Fatalf("%s: %d reports, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: node %d report not byte-identical to the every-step twin\ngot  %+v\nwant %+v",
					name, want[i].ID, got[i], want[i])
			}
		}
	}
}

// TestFusedTickDeterminismAcrossWorkers pins the environment tick
// (region invalidation and settle, then the parallel rate/sample pass)
// to byte-identical outcomes at any worker count: the same seeded
// run at Workers = 1, 4 and 8 must agree on every report bit and every
// per-node statistic. Run under -race in CI this also shakes out write
// overlap between the fan-out lanes.
func TestFusedTickDeterminismAcrossWorkers(t *testing.T) {
	runOnce := func(workers int) ([]Report, RunStats) {
		nw := newTestNetwork(272)
		nw.cutoffDB = exactCutoffDB
		nw.SetCouplingMode(CouplingSparse)
		nw.Workers = workers
		nw.Env.AddBlocker(&channel.Blocker{
			Pos: channel.Vec2{X: 2.5, Y: 1.5}, Radius: 0.3, LossDB: 12,
			Vel: channel.Vec2{X: 0.9, Y: 0.6},
		})
		nw.Env.AddBlocker(&channel.Blocker{
			Pos: channel.Vec2{X: 4.5, Y: 2.8}, Radius: 0.25, LossDB: 10,
			Vel: channel.Vec2{X: -0.7, Y: -0.4},
		})
		for i := 1; i <= 30; i++ {
			if _, err := nw.Join(uint32(i), churnPose(nw, uint32(i)), 40e6, Telemetry(0.05)); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		nw.ScheduleLeave(0.1, 4)
		nw.ScheduleJoin(0.2, 50, churnPose(nw, 50), 40e6, Telemetry(0.05))
		st := nw.Run(0.4, 0.05, 10)
		return nw.EvaluateSINR(), st
	}
	baseR, baseS := runOnce(1)
	work := baseS.Work
	for name, v := range map[string]int{
		"Events": work.Events, "MapItems": work.MapItems, "CellsWalked": work.CellsWalked, "SlotsVisited": work.SlotsVisited,
		"LeafTests": work.LeafTests, "Staled": work.Staled, "LinkEvals": work.LinkEvals,
	} {
		if v == 0 {
			t.Errorf("Work.%s = 0 on a run with walkers: %+v", name, work)
		}
	}
	for _, w := range []int{4, 8} {
		r, s := runOnce(w)
		if len(r) != len(baseR) {
			t.Fatalf("Workers=%d: report counts differ: %d vs %d", w, len(r), len(baseR))
		}
		for i := range r {
			if r[i] != baseR[i] {
				t.Fatalf("Workers=%d: node %d report diverged from serial\nserial   %+v\nparallel %+v",
					w, r[i].ID, baseR[i], r[i])
			}
		}
		if s.Joins != baseS.Joins || s.Leaves != baseS.Leaves || s.Control != baseS.Control {
			t.Fatalf("Workers=%d: run outcome diverged from serial", w)
		}
		if s.Work != baseS.Work {
			t.Fatalf("Workers=%d: work counts %+v, serial %+v", w, s.Work, baseS.Work)
		}
		if len(s.PerNode) != len(baseS.PerNode) {
			t.Fatalf("Workers=%d: per-node layout diverged", w)
		}
		for i := range s.PerNode {
			if s.PerNode[i] != baseS.PerNode[i] {
				t.Fatalf("Workers=%d: node %d stats diverged from serial\nserial   %+v\nparallel %+v",
					w, s.PerNode[i].ID, baseS.PerNode[i], s.PerNode[i])
			}
		}
	}
}

// TestMultiAPRegionRunMatchesStaleEverything is the Run-level form of the
// per-AP scoping contract, on the scenario where listen sets do not hold
// still: lossy control, Poisson churn, a crash and reboot, hysteresis
// roaming and a sweeping blocker move nodes between shards and make and
// break cross-shard edges while the blocker's regions are being mapped.
// The region-scoped run must be byte-identical to the stale-everything
// hook — statistics, association histories and final reports — and to
// itself at eight workers.
func TestMultiAPRegionRunMatchesStaleEverything(t *testing.T) {
	type outcome struct {
		fp       string
		reports  []Report
		st       RunStats
		relisten int // nodes whose cross-listen set changed between two membership events
	}
	run := func(staleEverything bool, workers int) outcome {
		nw := multiAPNetwork(t, 58, 4)
		nw.staleEveryTick = staleEverything
		nw.SetCouplingMode(CouplingSparse)
		nw.Workers = workers
		multiAPChurnPlan(t, nw, 58, 16, 8, 6)
		nw.Faults = faults.NewPlan().Crash(0.3, 5).Reboot(0.7, 5)
		var o outcome
		last := map[uint32]uint64{}
		snapshot := func() {
			for _, n := range nw.Nodes {
				var set uint64
				for a, x := range n.sp.cross {
					if x.edges > 0 {
						set |= 1 << a
					}
				}
				if was, seen := last[n.ID]; seen && was != set {
					o.relisten++
				}
				last[n.ID] = set
			}
		}
		snapshot()
		nw.OnMembership = func(string, uint32) { snapshot() }
		o.st = nw.Run(1.2, 0.05, 10)
		o.fp = fingerprintMultiAP(o.st)
		o.reports = nw.EvaluateSINR()
		return o
	}
	region, stale, wide := run(false, 1), run(true, 1), run(false, 8)
	for name, other := range map[string]outcome{"stale-everything": stale, "Workers=8": wide} {
		if region.fp != other.fp {
			t.Errorf("region run diverges from %s:\n--- region ---\n%s--- %s ---\n%s", name, region.fp, name, other.fp)
		}
		if len(region.reports) != len(other.reports) {
			t.Fatalf("%s: %d reports, region run has %d", name, len(other.reports), len(region.reports))
		}
		for i := range region.reports {
			if region.reports[i] != other.reports[i] {
				t.Errorf("node %d: report not byte-identical to %s\nregion %+v\nother  %+v",
					region.reports[i].ID, name, region.reports[i], other.reports[i])
			}
		}
	}
	if region.st.Roams == 0 {
		t.Error("no node roamed — serving shards never changed under the mapping")
	}
	if region.relisten == 0 {
		t.Error("no node gained or lost a cross-shard edge mid-run — the listen sets held still")
	}
	t.Logf("roams=%d, cross-listen sets changed %d times", region.st.Roams, region.relisten)
}

// FuzzRegionSoundness runs checkRegionStep on one blocker move in a
// generated deployment: room size, AP count and placement, reuse factor,
// reflection order, an optional interior wall, node count, poses outside
// the room (clamped into boundary cells) and the capsule itself are all
// inputs. Poses outside the room stretch the listener boxes past the grid.
// Up to two watched links per node (plantWatches) join the cached values.
func FuzzRegionSoundness(f *testing.F) {
	// The two property tests' shapes, and a 70-AP deployment.
	f.Add(uint64(31), 20.0, uint8(0), uint8(0), uint8(2), uint16(35), uint8(0), 0.3, 0.4, 0.32, 0.43, 0.25)
	f.Add(uint64(41), 200.0, uint8(15), uint8(3), uint8(2), uint16(399), uint8(0), 0.45, 0.5, 0.46, 0.49, 0.5)
	f.Add(uint64(7), 300.0, uint8(69), uint8(3), uint8(1), uint16(299), uint8(5), 0.2, 0.7, 0.21, 0.72, 0.4)
	f.Add(uint64(12), 60.0, uint8(3), uint8(1), uint8(0), uint16(80), uint8(7), 0.0, 0.0, 1.0, 1.0, 1.5)
	f.Fuzz(func(t *testing.T, seed uint64, side float64, aps, reuse, refl uint8, nodes uint16, outside uint8,
		fromX, fromY, toX, toY, radius float64) {
		for _, v := range []float64{side, fromX, fromY, toX, toY, radius} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		side = math.Min(math.Max(side, 5), 500)
		radius = math.Min(math.Max(radius, 0.05), 2)
		frac := func(v float64) float64 { return side * math.Min(math.Max(v, 0), 1) }
		rng := stats.NewRNG(seed)
		room := channel.NewRoom(side, side, rng)
		if seed&1 == 1 {
			room.AddInteriorWall(channel.Segment{
				A: channel.Vec2{X: 0.45 * side, Y: 0.2 * side}, B: channel.Vec2{X: 0.45 * side, Y: 0.75 * side},
			}, 8, 7)
		}
		env := channel.NewEnvironment(room, units.ISM24GHzCenter)
		env.MaxReflections = int(refl) % 3
		at := make([]channel.Vec2, 1+int(aps)%80)
		for k := range at {
			at[k] = channel.Vec2{X: rng.Uniform(0, side), Y: rng.Uniform(0, side)}
		}
		nw := apNetwork(t, env, seed, at, 1+int(reuse)%min(len(at), 8))
		for i := 0; i < 1+int(nodes)%400; i++ {
			pos := channel.Vec2{X: rng.Uniform(0, side), Y: rng.Uniform(0, side)}
			if i < int(outside)%8 {
				pos.X += side * float64(2*(i%2)-1) // left or right of the room
			}
			pose := channel.Pose{Pos: pos, Orientation: nw.selectAP(pos).Pose.Pos.Sub(pos).Angle()}
			// A join the spectrum cannot admit just leaves a smaller fleet.
			_, _ = nw.Join(uint32(i+1), pose, 1e6, Telemetry(5))
		}
		plantWatches(nw, int(seed>>1)%3)
		from := channel.Vec2{X: frac(fromX), Y: frac(fromY)}
		b := &channel.Blocker{Pos: from, Radius: radius, LossDB: 12}
		env.AddBlocker(b)
		rec := settledEvals(t, nw, "before the move")
		b.Vel = channel.Vec2{X: frac(toX), Y: frac(toY)}.Sub(from)
		settled := nw.sparse.envEpoch
		env.Step(1)
		nw.sparse.syncEnv(nw)
		checkRegionStep(t, nw, rec, settled, 0, &regionTally{})
	})
}

// coneShapes names the kinds of (box, apex, capsule) triple
// TestConeCellsCoverBruteForce draws, in the order coneCase takes them.
var coneShapes = []string{
	"apex outside the box", "apex inside the box", "apex on a cell line",
	"zero-length capsule", "field-scale boundary box",
}

// coneGrid is a bare sparse core over a side×side room: just the 128×128
// grid appendConeCells and cellIndex read.
func coneGrid(side float64) *sparseState {
	return &sparseState{nx: 128, ny: 128, cellW: side / 128, cellH: side / 128}
}

// coneCase draws one triple of the given shape over coneGrid(side). The
// capsule is drawn near the box half of the time and anywhere around box
// and apex otherwise.
func coneCase(rng *stats.RNG, shape int) (side float64, b box, apex channel.Vec2, k channel.SweptRegion) {
	side = 20
	cell := side / 128
	b = emptyBox()
	b.grow(channel.Vec2{X: rng.Uniform(-2, 22), Y: rng.Uniform(-2, 22)})
	b.grow(channel.Vec2{X: rng.Uniform(-2, 22), Y: rng.Uniform(-2, 22)})
	apex = channel.Vec2{X: rng.Uniform(-40, 60), Y: rng.Uniform(-40, 60)}
	radius, walk := rng.Uniform(0.05, 1.5), rng.Uniform(0, 3)
	switch shape {
	case 0:
		if apex.X >= b.lo.X && apex.X <= b.hi.X && apex.Y >= b.lo.Y && apex.Y <= b.hi.Y {
			apex.X = b.hi.X + rng.Uniform(0.1, 30)
		}
	case 1:
		apex = channel.Vec2{X: rng.Uniform(b.lo.X, b.hi.X), Y: rng.Uniform(b.lo.Y, b.hi.Y)}
	case 2:
		apex = channel.Vec2{X: float64(rng.Intn(129)) * cell, Y: rng.Uniform(-5, 25)}
		if rng.Intn(2) == 0 {
			apex.X, apex.Y = apex.Y, apex.X
		}
	case 3:
		walk = 0 // AddBlocker logs the newcomer's disc as a capsule of length 0
	case 4:
		// A listener box on the benchmark driver's 12 000-node field that
		// reaches past the room on some sides; the apex is an AP or an
		// unfolded one, and the capsule a pedestrian's step.
		side = 6000 * math.Sqrt(12)
		b = emptyBox()
		b.grow(channel.Vec2{X: rng.Uniform(-side/2, side), Y: rng.Uniform(-side/2, side)})
		b.grow(channel.Vec2{X: rng.Uniform(0, 1.5*side), Y: rng.Uniform(0, 1.5*side)})
		apex = channel.Vec2{X: rng.Uniform(-side, 2*side), Y: rng.Uniform(-side, 2*side)}
		radius, walk = rng.Uniform(0.2, 0.5), rng.Uniform(0, 2)
	}
	var p channel.Vec2
	if rng.Intn(2) == 0 {
		q := channel.Vec2{X: rng.Uniform(b.lo.X, b.hi.X), Y: rng.Uniform(b.lo.Y, b.hi.Y)}
		t, d := rng.Uniform(0, 1), 3*radius
		p = channel.Vec2{X: q.X + t*(apex.X-q.X) + rng.Uniform(-d, d), Y: q.Y + t*(apex.Y-q.Y) + rng.Uniform(-d, d)}
	} else {
		p = channel.Vec2{
			X: rng.Uniform(math.Min(b.lo.X, apex.X), math.Max(b.hi.X, apex.X)),
			Y: rng.Uniform(math.Min(b.lo.Y, apex.Y), math.Max(b.hi.Y, apex.Y)),
		}
	}
	sin, cos := math.Sincos(rng.Uniform(-math.Pi, math.Pi))
	k = channel.SweptRegion{Seg: channel.Segment{A: p, B: channel.Vec2{X: p.X + walk*cos, Y: p.Y + walk*sin}}, Radius: radius}
	return side, b, apex, k
}

// checkConeCells is the brute-force oracle of appendConeCells: every point
// of b whose segment to the apex crosses each of the corridor's gates
// within gateSlack (gateCross, nearNode's own test) and that some capsule
// variant's sector admits, at least dist − reach from the apex for that
// variant, must fall in a listed cell and inside every gate cut, and no
// cell may be listed twice. It draws the points uniformly over b, on its
// corners and edges, on cell lines, along the sectors' boundary rays, along
// the rays through points just past the gates' ends, and just on the
// apex's side of the gates' lines, and returns how many were in scope and
// how many cells the walk listed.
func checkConeCells(t *testing.T, s *sparseState, b box, co *corridor, rng *stats.RNG, points int) (inScope, listed int) {
	t.Helper()
	var cuts [maxCuts]halfPlane
	gateCuts := co.gateCuts(cuts[:0], &b)
	var gc cone
	co.gateCone(&gc, &b)
	cells := s.appendConeCells(nil, co, &b, &gc)
	visited := make([]bool, s.nx*s.ny)
	for _, c := range cells {
		if visited[c] {
			t.Fatalf("cell %d listed twice", c)
		}
		visited[c] = true
	}
	apex := co.apex
	inCone := func(p channel.Vec2) bool {
		for g := 0; g < co.nGates; g++ {
			if _, ok, miss := gateCross(channel.Segment{A: p, B: apex}, co.gates[g]); !ok || miss {
				return false
			}
		}
		for c := 0; c < co.nCaps; c++ {
			k := &co.caps[c]
			if co.secs[c].admitsPoint(apex, p) && p.Dist(apex) >= k.Seg.DistanceTo(apex)-(k.Radius+sweptSlack) {
				return true
			}
		}
		return false
	}
	far := math.Max(math.Hypot(b.lo.X-apex.X, b.lo.Y-apex.Y), math.Hypot(b.hi.X-apex.X, b.hi.Y-apex.Y)) +
		math.Hypot(b.hi.X-b.lo.X, b.hi.Y-b.lo.Y)
	for i := 0; i < points; i++ {
		p := channel.Vec2{X: rng.Uniform(b.lo.X, b.hi.X), Y: rng.Uniform(b.lo.Y, b.hi.Y)}
		switch i % 7 {
		case 1: // on an edge or a corner
			if rng.Intn(2) == 0 {
				p.X = [2]float64{b.lo.X, b.hi.X}[rng.Intn(2)]
			}
			if rng.Intn(2) == 0 {
				p.Y = [2]float64{b.lo.Y, b.hi.Y}[rng.Intn(2)]
			}
		case 2: // on a cell line
			p.X = math.Floor(p.X/s.cellW) * s.cellW
		case 3, 4: // on a boundary ray of one of the sectors
			if sc := &co.secs[i%co.nCaps]; !sc.all && !sc.none {
				d := channel.Vec2{X: sc.n1.Y, Y: -sc.n1.X}
				if i%7 == 4 {
					d = channel.Vec2{X: -sc.n2.Y, Y: sc.n2.X}
				}
				tt := rng.Uniform(0, far)
				p = channel.Vec2{X: apex.X + tt*d.X, Y: apex.Y + tt*d.Y}
			}
		case 5: // beyond a gate, on the ray through a point just past one of its ends
			if co.nGates > 0 {
				g := co.gates[rng.Intn(co.nGates)]
				u := [2]float64{-gateSlack / 2, 1 + gateSlack/2}[rng.Intn(2)]
				d := g.PointAt(u).Sub(apex)
				if l := d.Len(); l > 0 {
					p = apex.Add(d.Scale(rng.Uniform(1, 1+far/l)))
				}
			}
		case 6: // just on the apex's side of a gate's line, crossing it within gateSlack
			if co.nGates > 0 {
				g := co.gates[rng.Intn(co.nGates)]
				x := g.PointAt(rng.Uniform(0, 1))
				p = x.Add(apex.Sub(x).Scale(gateSlack / 2 * rng.Uniform(0, 1)))
			}
		}
		if p.X < b.lo.X || p.X > b.hi.X || p.Y < b.lo.Y || p.Y > b.hi.Y || !inCone(p) {
			continue
		}
		inScope++
		if c := s.cellIndex(p); !visited[c] {
			t.Fatalf("point %+v (cell %d, %d) is in a cone but its cell was not listed\nbox %+v apex %+v capsules %+v sectors %+v gates %+v",
				p, c%s.nx, c/s.nx, b, apex, co.caps[:co.nCaps], co.secs[:co.nCaps], co.gates[:co.nGates])
		}
		for _, h := range gateCuts {
			if side := p.Sub(h.o).Dot(h.nrm); side < -h.slack {
				t.Fatalf("point %+v crosses the gates but lies %g outside a gate cut %+v\napex %+v gates %+v",
					p, -side, h, apex, co.gates[:co.nGates])
			}
		}
	}
	return inScope, len(cells)
}

// TestConeCellsCoverBruteForce holds the cone walk to the brute-force
// oracle over 30 000 seeded (box, apex, capsule) triples — every shape of
// coneShapes, the capsule's sector computed from the apex on half of them
// and admitting everything on the other half, and on two thirds of them
// one or two more capsule variants, each the previous one mirrored across
// a line through the box, as a reflection corridor's are, with a gate of
// random length on each such line. Both in-scope points and cells the walk
// leaves out must be common, or the check is vacuous.
func TestConeCellsCoverBruteForce(t *testing.T) {
	const trials = 30000
	rng := stats.NewRNG(83)
	var scoped, pruned, tried [5]int
	gated := 0
	for i := 0; i < trials; i++ {
		shape := i % len(coneShapes)
		side, b, apex, k := coneCase(rng, shape)
		s := coneGrid(side)
		co := corridor{apex: apex, nCaps: 1 + i/(2*len(coneShapes))%3}
		co.nGates = co.nCaps - 1
		co.caps[0] = k
		for c := 1; c < co.nCaps; c++ {
			q := channel.Vec2{X: rng.Uniform(b.lo.X, b.hi.X), Y: rng.Uniform(b.lo.Y, b.hi.Y)}
			sin, cos := math.Sincos(rng.Uniform(-math.Pi, math.Pi))
			wall := channel.Segment{A: q, B: channel.Vec2{X: q.X + cos, Y: q.Y + sin}}
			co.caps[c] = mirrorRegion(wall, co.caps[c-1])
			co.gates[c-1] = channel.Segment{A: wall.PointAt(-rng.Uniform(0, side/2)), B: wall.PointAt(rng.Uniform(0, side/2))}
		}
		for c := 0; c < co.nCaps; c++ {
			co.secs[c] = sector{all: true}
			if i/len(coneShapes)%2 == 0 {
				co.secs[c] = makeSector(apex, co.caps[c])
			}
		}
		in, listed := checkConeCells(t, s, b, &co, rng, 200)
		lo, hi := s.cellIndex(b.lo), s.cellIndex(b.hi)
		tried[shape]++
		if in > 0 {
			scoped[shape]++
			if co.nGates > 0 {
				gated++
			}
		}
		if listed < (hi%s.nx-lo%s.nx+1)*(hi/s.nx-lo/s.nx+1) {
			pruned[shape]++
		}
	}
	for sh, name := range coneShapes {
		if 5*scoped[sh] < tried[sh] || 5*pruned[sh] < tried[sh] {
			t.Errorf("%s: %d of %d triples had points in scope, %d left cells of the box out — both must be common",
				name, scoped[sh], tried[sh], pruned[sh])
		}
	}
	if 10*gated < trials {
		t.Errorf("only %d of %d triples had gates and points in scope", gated, trials)
	}
	t.Logf("in scope %v (%d with gates), pruned %v of %v per shape", scoped, gated, pruned, tried)
}

// FuzzConeCells runs the brute-force oracle of TestConeCellsCoverBruteForce
// on generated corridors: the room side, two box corners, the apex, the
// capsule's ends and radius, whether the sector admits everything, and up
// to two gates, each also the line the previous capsule variant is
// mirrored across.
func FuzzConeCells(f *testing.F) {
	f.Add(uint64(1), 20.0, 2.0, 3.0, 15.0, 12.0, -10.0, 5.0, 6.0, 7.0, 6.5, 7.2, 0.3, false, uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(2), 20.0, -3.0, -1.0, 25.0, 4.0, 5.0, 2.0, 5.0, 2.0, 8.0, 2.0, 0.4, false, uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(3), 20785.0, -9000.0, 100.0, 25000.0, 20000.0, 47000.0, -12000.0, 800.0, 900.0, 801.0, 901.0, 0.3, false, uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(4), 60.0, 0.0, 0.0, 60.0, 60.0, 30.0, 30.0, 10.0, 10.0, 10.0, 10.0, 1.0, true, uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	// A single bounce off a wall at x = 20 (apex: the AP mirrored there),
	// and a double bounce adding the mirrored floor y = 0.
	f.Add(uint64(5), 20.0, 0.0, 0.0, 20.0, 20.0, 34.0, 8.0, 6.0, 9.0, 6.5, 9.4, 0.3, false, uint8(1), 20.0, 0.0, 20.0, 20.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(6), 20.0, 0.0, 0.0, 20.0, 20.0, 34.0, -8.0, 6.0, 9.0, 6.5, 9.4, 0.3, false, uint8(2), 20.0, 0.0, 20.0, 20.0, 20.0, 0.0, 40.0, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, side, x0, y0, x1, y1, ax, ay, kx0, ky0, kx1, ky1, radius float64, all bool,
		gates uint8, g0x0, g0y0, g0x1, g0y1, g1x0, g1y0, g1x1, g1y1 float64) {
		for _, v := range []float64{side, x0, y0, x1, y1, ax, ay, kx0, ky0, kx1, ky1, radius, g0x0, g0y0, g0x1, g0y1, g1x0, g1y0, g1x1, g1y1} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip("non-finite or off-scale input")
			}
		}
		side = math.Max(side, 1)
		b := emptyBox()
		b.grow(channel.Vec2{X: x0, Y: y0})
		b.grow(channel.Vec2{X: x1, Y: y1})
		k := channel.SweptRegion{
			Seg:    channel.Segment{A: channel.Vec2{X: kx0, Y: ky0}, B: channel.Vec2{X: kx1, Y: ky1}},
			Radius: math.Min(math.Max(radius, 0.01), 5),
		}
		co := corridor{apex: channel.Vec2{X: ax, Y: ay}, nGates: int(gates) % 3}
		co.nCaps = co.nGates + 1
		co.gates = [2]channel.Segment{
			{A: channel.Vec2{X: g0x0, Y: g0y0}, B: channel.Vec2{X: g0x1, Y: g0y1}},
			{A: channel.Vec2{X: g1x0, Y: g1y0}, B: channel.Vec2{X: g1x1, Y: g1y1}},
		}
		co.caps[0] = k
		for c := 1; c < co.nCaps; c++ {
			co.caps[c] = mirrorRegion(co.gates[c-1], co.caps[c-1])
		}
		for c := 0; c < co.nCaps; c++ {
			co.secs[c] = sector{all: true}
			if !all {
				co.secs[c] = makeSector(co.apex, co.caps[c])
			}
		}
		checkConeCells(t, coneGrid(side), b, &co, stats.NewRNG(seed), 500)
	})
}

// TestClampCellMatchesFloor pins clampCell's truncating clamp to the Floor
// form it replaced, int(math.Min(math.Max(math.Floor(v/w), 0), n−1)): on
// ±0, ±Inf and ±1e300, on k·w and its neighbours one ulp away for k in
// {0, 1, n−2, n−1, n}, and on seeded random coordinates, over the grids
// the simulator and the tests use and two odd ones. NaN is left out:
// int(NaN) is implementation-defined in both forms, and node positions
// are finite.
func TestClampCellMatchesFloor(t *testing.T) {
	floor := func(v, w float64, n int) int { return int(math.Min(math.Max(math.Floor(v/w), 0), float64(n-1))) }
	rng := stats.NewRNG(97)
	grids := []struct {
		w float64
		n int
	}{{20.0 / 128, 128}, {6000 * math.Sqrt(12) / 128, 128}, {1, 1}, {0.3, 7}}
	for _, g := range grids {
		vs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e300, -1e300}
		for _, k := range []int{0, 1, g.n - 2, g.n - 1, g.n} {
			v := float64(k) * g.w
			vs = append(vs, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		}
		for i := 0; i < 10000; i++ {
			vs = append(vs, rng.Uniform(-0.5, 1.5)*float64(g.n)*g.w)
		}
		for _, v := range vs {
			if got, want := clampCell(v, g.w, g.n), floor(v, g.w, g.n); got != want {
				t.Errorf("w=%v n=%d v=%v: clampCell = %d, the Floor form %d", g.w, g.n, v, got, want)
			}
		}
	}
}

// TestSectorScreensAreSound holds the walk's two trigonometry-free screens
// to brute force on the triples of TestConeCellsCoverBruteForce: where
// mayReach rules a whole listener box out, or aimSectors gives a capsule
// variant the sector that admits nothing, no point of the box whose
// segment to the apex crosses the corridor's gates may have that segment
// within reach of the variant. The points are drawn uniformly and along
// rays from the apex through the capsules' neighbourhoods.
func TestSectorScreensAreSound(t *testing.T) {
	rng := stats.NewRNG(89)
	ruledOut, screened, checked := 0, 0, 0
	for i := 0; i < 20000; i++ {
		_, b, apex, k := coneCase(rng, i%len(coneShapes))
		co := corridor{apex: apex, nCaps: 1 + i%3}
		co.nGates = co.nCaps - 1
		co.caps[0] = k
		for c := 1; c < co.nCaps; c++ {
			q := channel.Vec2{X: rng.Uniform(b.lo.X, b.hi.X), Y: rng.Uniform(b.lo.Y, b.hi.Y)}
			sin, cos := math.Sincos(rng.Uniform(-math.Pi, math.Pi))
			wall := channel.Segment{A: q, B: channel.Vec2{X: q.X + cos, Y: q.Y + sin}}
			co.caps[c] = mirrorRegion(wall, co.caps[c-1])
			co.gates[c-1] = channel.Segment{A: wall.PointAt(-rng.Uniform(0, 10)), B: wall.PointAt(rng.Uniform(0, 10))}
		}
		var dead [3]bool
		if !co.mayReach(&b) {
			ruledOut++
			dead = [3]bool{true, true, true}
		} else {
			var gc cone
			co.gateCone(&gc, &b)
			if gc.n == 0 {
				continue
			}
			co.aimSectors(&gc)
			for c := 0; c < co.nCaps; c++ {
				dead[c] = co.secs[c].none
			}
		}
		if !dead[0] && !dead[1] && !dead[2] {
			continue
		}
		screened++
		for j := 0; j < 200; j++ {
			p := channel.Vec2{X: rng.Uniform(b.lo.X, b.hi.X), Y: rng.Uniform(b.lo.Y, b.hi.Y)}
			if j%2 == 1 {
				kc := &co.caps[j%co.nCaps]
				r := 2 * kc.Radius
				q := kc.Seg.PointAt(rng.Uniform(0, 1)).Add(channel.Vec2{X: rng.Uniform(-r, r), Y: rng.Uniform(-r, r)})
				p = apex.Add(q.Sub(apex).Scale(rng.Uniform(0, 3)))
			}
			if p.X < b.lo.X || p.X > b.hi.X || p.Y < b.lo.Y || p.Y > b.hi.Y {
				continue
			}
			seg := channel.Segment{A: p, B: apex}
			crosses := true
			for g := 0; g < co.nGates; g++ {
				if _, ok, miss := gateCross(seg, co.gates[g]); !ok || miss {
					crosses = false
				}
			}
			if !crosses {
				continue
			}
			for c := 0; c < co.nCaps; c++ {
				kc := &co.caps[c]
				if !dead[c] {
					continue
				}
				checked++
				if segsWithin(kc.Seg, seg, kc.Radius*kc.Radius) {
					t.Fatalf("capsule %d %+v was screened out, but the segment from %+v to the apex %+v comes within its reach\nbox %+v gates %+v",
						c, *kc, p, apex, b, co.gates[:co.nGates])
				}
			}
		}
	}
	if ruledOut < 100 || screened < 1000 || checked < 10000 {
		t.Errorf("the screens were barely exercised: %d boxes ruled out, %d triples screened, %d points checked", ruledOut, screened, checked)
	}
	t.Logf("%d boxes ruled out, %d triples screened, %d points checked", ruledOut, screened, checked)
}

// TestRegionMapDirtyOrderAcrossWorkers pins the mapping fan-out's merge:
// after every walker step the dirty list syncEnv leaves must hold the
// same node IDs in the same order at Workers = 1, 2 and 8 — the order
// the eval pass's serial victim propagation and every later append build
// on — on a one-AP field and on a sixteen-AP reuse-4 field.
func TestRegionMapDirtyOrderAcrossWorkers(t *testing.T) {
	for _, g := range []int{1, 4} {
		workers := []int{1, 2, 8}
		nets := make([]*Network, len(workers))
		for w := range workers {
			nw := gridAPNetwork(t, 53, 200, g, g)
			nw.Workers = workers[w]
			prng := stats.NewRNG(54)
			joinUniform(t, nw, prng, 600)
			for k := 0; k < 4; k++ {
				nw.Env.AddBlocker(&channel.Blocker{
					Pos:    channel.Vec2{X: prng.Uniform(20, 180), Y: prng.Uniform(20, 180)},
					Radius: 0.4, LossDB: 12,
					Vel: channel.Vec2{X: prng.Uniform(-3, 3), Y: prng.Uniform(-3, 3)},
				})
			}
			nw.EvaluateSINR()
			nets[w] = nw
		}
		marked, spread := 0, 0
		for step := 0; step < 40; step++ {
			var want []uint32
			for w, nw := range nets {
				nw.Env.Step(0.1)
				nw.sparse.syncEnv(nw)
				ids := make([]uint32, len(nw.sparse.dirty))
				for i, n := range nw.sparse.dirty {
					ids[i] = n.ID
				}
				if w == 0 {
					want = ids
					marked += len(ids)
				} else if !slices.Equal(ids, want) {
					t.Fatalf("%d APs, step %d: dirty list at Workers=%d differs from Workers=1\nWorkers=1: %v\nWorkers=%d: %v",
						g*g, step, workers[w], want, workers[w], ids)
				}
				if w == len(nets)-1 {
					lanes := map[int32]bool{}
					for _, it := range nw.sparse.mapItems {
						if it.hi > it.lo {
							lanes[it.lane] = true
						}
					}
					if len(lanes) > 1 {
						spread++
					}
				}
				nw.EvaluateSINR()
			}
		}
		if marked < 40 {
			t.Fatalf("%d APs: 40 steps marked %d nodes — the order had nothing to decide", g*g, marked)
		}
		t.Logf("%d APs: %d marks over 40 steps; candidates came from several lanes on %d steps at Workers=8", g*g, marked, spread)
	}
}

// TestRegionMappingAllocatesNothing pins the whole mapping — swept log
// read, wall list, corridors, cone walks, dirty marks — at zero
// allocations per environment tick once warm, with one AP and with
// sixteen.
func TestRegionMappingAllocatesNothing(t *testing.T) {
	for _, g := range []int{1, 4} {
		nw := gridAPNetwork(t, 47, 200, g, g)
		prng := stats.NewRNG(48)
		joinUniform(t, nw, prng, 600)
		for k := 0; k < 4; k++ {
			nw.Env.AddBlocker(&channel.Blocker{
				Pos:    channel.Vec2{X: prng.Uniform(20, 180), Y: prng.Uniform(20, 180)},
				Radius: 0.4, LossDB: 12,
				Vel: channel.Vec2{X: prng.Uniform(-2, 2), Y: prng.Uniform(-2, 2)},
			})
		}
		// Warm: the first settle sizes the dirty list to the membership,
		// the first mappings allocate the scratch lists,
		// and forty steps grow the swept log (and the scratch copy of it)
		// past what the measured ones add.
		for i := 0; i < 40; i++ {
			nw.Env.Step(0.05)
		}
		nw.EvaluateSINR()
		allocs := testing.AllocsPerRun(20, func() {
			nw.Env.Step(0.05)
			nw.sparse.syncEnv(nw)
		})
		if allocs != 0 {
			t.Errorf("%d APs: a warm walker step + syncEnv allocates %.0f times, want 0", g*g, allocs)
		}
	}
}

// BenchmarkRegionMap is the region-mapping phase on its own rung: the
// benchmark driver's 12 000-node field (constant density, four walkers
// on a ring around AP 0 crossing its sight lines), one iteration = one
// environment tick mapped and settled, on one worker and on GOMAXPROCS
// of them. The tick is 0.25 s, where a walker moves past its own radius,
// or 0.05 s, the sim-blockers workload's tick. ns/op times the whole tick
// and map-ms/op the mapping alone (syncEnv), so the settle's link
// evaluations do not hide mapping's share. The other metrics are the
// WorkStats counts per tick, exact at any worker count: the work items,
// the cells the cone walks listed, the node slots in them, the leaf
// tests, the nodes the mapping staled and the eval pass's link
// evaluations. All rungs of one AP count share a fleet, whose walkers
// move on between them.
func BenchmarkRegionMap(b *testing.B) {
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("aps=%d", g*g), func(b *testing.B) {
			const nodes, walkers = 12000, 4
			side := 6000 * math.Sqrt(nodes/1000.0)
			nw := gridAPNetwork(b, 61, side, g, min(g*g, 4))
			joinUniform(b, nw, stats.NewRNG(62), nodes)
			ap := nw.APs[0].Pose.Pos
			for k := 0; k < walkers; k++ {
				sin, cos := math.Sincos(2 * math.Pi * float64(k) / walkers)
				r := 50 + 150*float64(k)/(walkers-1)
				nw.Env.AddBlocker(&channel.Blocker{
					Pos:    channel.Vec2{X: ap.X + r*cos, Y: ap.Y + r*sin},
					Radius: 0.3, LossDB: 15,
					Vel: channel.Vec2{X: -1.5 * sin, Y: 1.5 * cos},
				})
			}
			nw.EvaluateSINR()
			for _, step := range []float64{0.25, 0.05} {
				for _, w := range workers {
					b.Run(fmt.Sprintf("step=%gs/workers=%d", step, w), func(b *testing.B) {
						nw.Workers = w
						b.ReportAllocs()
						nw.work = WorkStats{}
						var mapping time.Duration
						for i := 0; i < b.N; i++ {
							nw.Env.Step(step)
							t0 := time.Now()
							nw.sparse.syncEnv(nw)
							mapping += time.Since(t0)
							nw.sparse.settle(nw) // the eval and finish passes
						}
						per := func(v int) float64 { return float64(v) / float64(b.N) }
						d := nw.work
						b.ReportMetric(mapping.Seconds()*1e3/float64(b.N), "map-ms/op")
						b.ReportMetric(per(d.MapItems), "items/op")
						b.ReportMetric(per(d.CellsWalked), "cells/op")
						b.ReportMetric(per(d.SlotsVisited), "slots/op")
						b.ReportMetric(per(d.LeafTests), "leaf/op")
						b.ReportMetric(per(d.Staled), "staled/op")
						b.ReportMetric(per(d.LinkEvals), "evals/op")
					})
				}
			}
		})
	}
}
