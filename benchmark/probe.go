package main

import (
	"time"

	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/stats"
	"mmx/internal/tma"
	"mmx/internal/units"
)

// Layer probes time the public functions of the modules under a
// workload, from outside, on inputs sampled from that workload. They run
// only on a traced run, after the measured repeats.

// perCall runs fn, which makes calls calls, batches times and returns
// the time of one call per batch, in units of 1/scale seconds (1e6 for
// µs). Timing a batch keeps the clock's own cost out of calls that take
// a few hundred nanoseconds.
func perCall(batches, calls int, scale float64, fn func()) []float64 {
	out := make([]float64, batches)
	for b := range out {
		t0 := time.Now()
		fn()
		out[b] = time.Since(t0).Seconds() * scale / float64(calls)
	}
	return out
}

const probeBatches = 5

// probeLinkLayers times core, channel and tma on node poses sampled from
// the workload's fleet: a link evaluation in the empty field and under
// the sim-blockers crowd, the two-beam channel gains alone, the path
// count behind them, one environment step of the crowd, and the TMA
// gain table and harmonic pick at the sampled angles of arrival.
func probeLinkLayers(res *result, in *simInputs, ln *lane, parent int32) {
	sp := ln.begin("probe/link-layers", parent)
	defer ln.end(sp)
	rng := stats.NewRNG(in.netSeed ^ 0x70726f6265)
	samples := min(2000, len(in.poses))
	field := func(walkers int) *channel.Environment {
		env := channel.NewEnvironment(channel.NewRoom(in.side, in.side, stats.NewRNG(in.envSeed)), units.ISM24GHzCenter)
		for k := 0; k < walkers; k++ {
			x, y, vx, vy := walker(k, walkers, in.aps[0])
			env.AddBlocker(&channel.Blocker{Pos: channel.Vec2{X: x, Y: y}, Radius: 0.3, LossDB: 12.5,
				Vel: channel.Vec2{X: vx, Y: vy}})
		}
		return env
	}
	ap := channel.Pose{Pos: channel.Vec2{X: in.aps[0][0], Y: in.aps[0][1]}}
	links := func(env *channel.Environment) []*core.Link {
		out := make([]*core.Link, samples)
		for i := range out {
			p := in.poses[rng.Intn(len(in.poses))]
			out[i] = core.NewLink(env, channel.Pose{Pos: channel.Vec2{X: p.X, Y: p.Y}, Orientation: p.FacingRad}, ap)
		}
		return out
	}
	empty, crowd := field(0), field(8)
	emptyLinks, crowdLinks := links(empty), links(crowd)
	evalAll := func(ls []*core.Link) func() {
		return func() {
			for _, l := range ls {
				l.EvaluateWithClass()
			}
		}
	}
	res.set("core.link_eval_us", perCall(probeBatches, samples, 1e6, evalAll(emptyLinks))...)
	res.set("core.link_eval_crowd_us", perCall(probeBatches, samples, 1e6, evalAll(crowdLinks))...)
	res.set("channel.beam_gains_us", perCall(probeBatches, samples, 1e6, func() {
		for _, l := range crowdLinks {
			crowd.BeamGainsWithClass(l.Node, l.Beams, l.AP, l.APPattern)
		}
	})...)
	paths := 0
	for _, l := range crowdLinks {
		paths += len(crowd.Paths(l.Node.Pos, l.AP.Pos))
	}
	res.set("channel.paths_per_eval", float64(paths)/float64(samples))
	const steps = 200
	res.set("channel.env_step_us", perCall(probeBatches, steps, 1e6, func() {
		for i := 0; i < steps; i++ {
			crowd.Step(0.05)
		}
	})...)

	arr := tma.NewSDMArray(16, 1e6) // the AP array simnet builds
	thetas := make([]float64, samples)
	for i, l := range emptyLinks {
		thetas[i] = ap.AngleTo(l.Node.Pos)
	}
	res.set("tma.gain_table_us", perCall(probeBatches, samples, 1e6, func() {
		for _, th := range thetas {
			arr.GainTable(th)
		}
	})...)
	res.set("tma.best_harmonic_us", perCall(probeBatches, samples, 1e6, func() {
		for _, th := range thetas {
			arr.BestHarmonic(th)
		}
	})...)
}
