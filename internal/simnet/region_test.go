package simnet

import (
	"math"
	"testing"

	"mmx/internal/channel"
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
	nw.CouplingCutoffDB = exactCutoffDB
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
	nw.EvaluateSINR() // settle the baseline caches
	s := nw.sparse

	const steps = 150
	changed, staled, population := 0, 0, 0
	for step := 0; step < steps; step++ {
		if step%25 == 24 { // re-aim the walkers so they roam the whole room
			for _, b := range env.Blockers {
				b.Vel = channel.Vec2{X: prng.Uniform(-2, 2), Y: prng.Uniform(-2, 2)}
			}
		}
		env.Step(prng.Uniform(0.02, 0.1))
		s.syncEnv(nw) // marks the dirty set without settling it
		for _, n := range nw.Nodes {
			population++
			fresh := n.Link.EvaluateWithClass()
			if fresh != n.sp.eval {
				changed++
				if !n.sp.evalStale {
					t.Fatalf("step %d: node %d's evaluation changed but was not invalidated\ncached %+v\nfresh  %+v",
						step, n.ID, n.sp.eval, fresh)
				}
			}
			if n.sp.evalStale {
				staled++
			}
		}
		nw.EvaluateSINR() // settle so the caches are fresh for the next step
	}
	if changed == 0 {
		t.Fatal("walk never changed any node's evaluation — the property was vacuous")
	}
	if staled >= population {
		t.Fatal("every node was staled on every step — region invalidation degenerated to stale-everything")
	}
	t.Logf("%d steps: %d node-evals changed, %d staled of %d node-steps (%.1f%%)",
		steps, changed, staled, population, 100*float64(staled)/float64(population))
}

// TestRegionRunMatchesStaleEverything requires the region-invalidated
// sparse core to be indistinguishable from the stale-everything baseline
// — byte-identical reports and traffic outcomes, not just close — through
// a full Run with walking blockers, scheduled churn and node faults, and
// both to stay within 1e-12 of the dense golden reference.
func TestRegionRunMatchesStaleEverything(t *testing.T) {
	region := newTestNetwork(77)
	region.CouplingCutoffDB = exactCutoffDB
	region.SetCouplingMode(CouplingSparse)
	stale := newTestNetwork(77)
	stale.CouplingCutoffDB = exactCutoffDB
	stale.staleEveryTick = true
	stale.SetCouplingMode(CouplingSparse)
	dense := newTestNetwork(77)
	dense.SetCouplingMode(CouplingDense)
	for _, nw := range []*Network{region, stale, dense} {
		nw.Env.AddBlocker(&channel.Blocker{
			Pos: channel.Vec2{X: 3, Y: 2}, Radius: 0.3, LossDB: 12,
			Vel: channel.Vec2{X: 0.8, Y: -0.5},
		})
		nw.Env.AddBlocker(&channel.Blocker{
			Pos: channel.Vec2{X: 1.6, Y: 1.2}, Radius: 0.25, LossDB: 10,
			Vel: channel.Vec2{X: -0.6, Y: 0.9},
		})
		for i := 1; i <= 24; i++ {
			if _, err := nw.Join(uint32(i), churnPose(nw, uint32(i)), 40e6, Telemetry(0.05)); err != nil {
				t.Fatalf("join %d: %v", i, err)
			}
		}
		nw.ScheduleJoin(0.1, 40, churnPose(nw, 40), 40e6, Telemetry(0.05))
		nw.ScheduleLeave(0.15, 3)
		nw.ScheduleLeave(0.3, 11)
		nw.Faults = faults.NewPlan().Crash(0.12, 5).Reboot(0.28, 5)
	}
	rs := region.Run(0.5, 0.05, 10)
	ss := stale.Run(0.5, 0.05, 10)
	dense.Run(0.5, 0.05, 10)

	if rs.Joins != ss.Joins || rs.Leaves != ss.Leaves || rs.JoinsFailed != ss.JoinsFailed || rs.Control != ss.Control {
		t.Fatalf("control outcomes diverged: region %+v stale %+v", rs.Control, ss.Control)
	}
	if len(rs.PerNode) != len(ss.PerNode) {
		t.Fatalf("per-node layout diverged: %d vs %d", len(rs.PerNode), len(ss.PerNode))
	}
	for i := range rs.PerNode {
		if rs.PerNode[i] != ss.PerNode[i] {
			t.Errorf("node %d: stats not byte-identical\nregion %+v\nstale  %+v",
				rs.PerNode[i].ID, rs.PerNode[i], ss.PerNode[i])
		}
	}
	rr := region.EvaluateSINR()
	sr := stale.EvaluateSINR()
	if len(rr) != len(sr) {
		t.Fatalf("report counts diverged: %d vs %d", len(rr), len(sr))
	}
	for i := range rr {
		if rr[i] != sr[i] {
			t.Errorf("node %d: reports not byte-identical\nregion %+v\nstale  %+v", rr[i].ID, rr[i], sr[i])
		}
	}
	assertReportsClose(t, dense, region, 1e-12, "region vs dense")
	assertReportsClose(t, dense, stale, 1e-12, "stale vs dense")
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
		nw.CouplingCutoffDB = exactCutoffDB
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

// TestFusedTickDeterminismAcrossWorkers pins the fused environment tick
// (region invalidation + parallel rate adaptation + SINR sampling in one
// pass) to byte-identical outcomes at any worker count: the same seeded
// run at Workers = 1, 4 and 8 must agree on every report bit and every
// per-node statistic. Run under -race in CI this also shakes out write
// overlap between the fan-out lanes.
func TestFusedTickDeterminismAcrossWorkers(t *testing.T) {
	runOnce := func(workers int) ([]Report, RunStats) {
		nw := newTestNetwork(272)
		nw.CouplingCutoffDB = exactCutoffDB
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
