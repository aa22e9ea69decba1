package simnet

import (
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/faults"
	"mmx/internal/stats"
	"mmx/internal/tma"
	"mmx/internal/units"
)

// This file holds the oracles of the admission path: the disc walk that
// discoverIn's grid-slot screens replaced, the invariant the evaluation a
// join seeds into the engine must keep, and the host-channel search
// against its all-members scan.

// forEachInDisc visits every node whose grid cell intersects the disc of
// radius r around p (cellsInDisc). Individual nodes inside a surviving
// cell are NOT distance-filtered — callers re-check admission exactly,
// so the disc only has to be a superset.
func (s *sparseState) forEachInDisc(p channel.Vec2, r float64, fn func(*Node)) {
	for _, c := range s.cellsInDisc(p, r) {
		for _, sl := range s.cells[c] {
			fn(sl.n)
		}
	}
}

// cellsInDisc lists, in row-major order, the grid cells whose rectangle
// comes within r of p, testing every cell of the disc's bounding box by
// rectangle-to-point distance. r = +Inf (a cut of 0) lists every cell.
func (s *sparseState) cellsInDisc(p channel.Vec2, r float64) []int {
	ix0, ix1 := cellSpan(p.X, r, s.cellW, s.nx)
	iy0, iy1 := cellSpan(p.Y, r, s.cellH, s.ny)
	r2 := r * r
	var cells []int
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			// Nearest point of the cell rectangle to p.
			dx := 0.0
			if x0 := float64(ix) * s.cellW; p.X < x0 {
				dx = x0 - p.X
			} else if x1 := float64(ix+1) * s.cellW; p.X > x1 {
				dx = p.X - x1
			}
			dy := 0.0
			if y0 := float64(iy) * s.cellH; p.Y < y0 {
				dy = y0 - p.Y
			} else if y1 := float64(iy+1) * s.cellH; p.Y > y1 {
				dy = p.Y - y1
			}
			if dx*dx+dy*dy <= r2 {
				cells = append(cells, iy*s.nx+ix)
			}
		}
	}
	return cells
}

// TestDiscRowsMatchCellTest pins the row runs audibleIn walks (discRow)
// to the per-cell rectangle test they replaced (cellsInDisc): the same
// cells in the same order, for discs centred inside and outside the
// room, on cell edges and corners, from below a cell's width to past the
// room's diagonal, and for r = +Inf.
func TestDiscRowsMatchCellTest(t *testing.T) {
	nw := newTestNetwork(1)
	s := nw.core()
	w, h := nw.Env.Room.Width, nw.Env.Room.Height
	rng := stats.NewRNG(5)
	for k := 0; k < 3000; k++ {
		p := channel.Vec2{X: rng.Uniform(-0.2*w, 1.2*w), Y: rng.Uniform(-0.2*h, 1.2*h)}
		if k%3 == 0 { // on a cell edge, or a corner
			p.X = math.Round(p.X/s.cellW) * s.cellW
			if k%2 == 0 {
				p.Y = math.Round(p.Y/s.cellH) * s.cellH
			}
		}
		r := s.cellW * math.Exp(rng.Uniform(-3, math.Log(4*(w+h)/s.cellW)))
		switch k % 50 {
		case 0:
			r = math.Inf(1)
		case 1:
			r = sparseDMin
		}
		want := s.cellsInDisc(p, r)
		var got []int
		ix0, ix1 := cellSpan(p.X, r, s.cellW, s.nx)
		iy0, iy1 := cellSpan(p.Y, r, s.cellH, s.ny)
		for iy := iy0; iy <= iy1; iy++ {
			lo, hi := s.discRow(iy, ix0, ix1, p, r*r)
			for ix := lo; ix <= hi; ix++ {
				got = append(got, iy*s.nx+ix)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("disc at %+v radius %g: the row runs list %d cells, the cell test %d", p, r, len(got), len(want))
		}
	}
}

// discWalkIn is victim-side discovery as it ran before the grid slots:
// the disc walk, and per candidate node its own power bound (re-anchored
// at v's AP when another AP serves it) and the pair kernel. It reads no
// slot field but the node pointer. walks keeps each disc's walk, by AP
// and radius, for the victims after the first that ask for it.
func discWalkIn(s *sparseState, nw *Network, v *Node, walks map[discKey][]*Node) []inEdge {
	threshold := s.cut * v.sp.noise
	r := math.Sqrt(s.pC / threshold)
	if r < sparseDMin {
		r = sparseDMin
	}
	apV := v.AP
	cands, ok := walks[discKey{apV, r}]
	if !ok {
		s.forEachInDisc(apV.Pose.Pos, r, func(j *Node) { cands = append(cands, j) })
		walks[discKey{apV, r}] = cands
	}
	var out []inEdge
	for _, j := range cands {
		if j == v {
			continue
		}
		pb := j.sp.pBound
		if j.AP.idx != apV.idx {
			pb = s.pBoundAt(j.Pose.Pos, apV)
		}
		if pb < threshold {
			continue
		}
		w := nw.pairCouplingLinear(v, j)
		if pb*w >= threshold {
			out = append(out, inEdge{src: j, w: w})
		}
	}
	return out
}

type discKey struct {
	ap *AccessPoint
	r  float64
}

// assertDiscoveryMatchesDiscWalk checks the engine's discovery state
// against the disc walk and returns how many grid slots are unscreened.
// Every grid slot sits where its node says and carries its node's power
// bound, and either its node's channel entry, which then bounds the grant
// the node operates on (same center, width within the channel's widest),
// or none (unscreen) for a down node. For every member, audibleIn finds
// what the walk finds — the same sources, the same coupling bits, in the
// same order, which is the order discoverIn hooks them in. While no slot
// is unscreened, each member's in-edges are also the walk's set, each
// source once with the walk's coupling bits (their order is the history
// of the discoverIn and discoverOut calls that added them, which the
// lossy fleets check against a run on the walk itself). An unscreened
// node's edges were admitted on the grant it had then, so the set check
// waits for its registration to catch up.
func assertDiscoveryMatchesDiscWalk(t *testing.T, nw *Network, what string) int {
	t.Helper()
	s := nw.sparse
	slots, unscreened := 0, 0
	for c, cell := range s.cells {
		for i, sl := range cell {
			n := sl.n
			if n.sp.cell != c || n.sp.cellSlot != i {
				t.Fatalf("%s: node %d listed in cell %d slot %d, records cell %d slot %d", what, n.ID, c, i, n.sp.cell, n.sp.cellSlot)
			}
			if math.Float64bits(sl.pBound) != math.Float64bits(n.sp.pBound) {
				t.Fatalf("%s: node %d slot holds bound %x, node has %x", what, n.ID, sl.pBound, n.sp.pBound)
			}
			switch {
			case sl.cs == nil:
				if !n.Down {
					t.Fatalf("%s: node %d is up with an unscreened slot", what, n.ID)
				}
				unscreened++
			case sl.cs != n.sp.cs:
				t.Fatalf("%s: node %d slot holds channel %p, node has %p", what, n.ID, sl.cs, n.sp.cs)
			case sl.cs.center != n.Assignment.CenterHz || n.Assignment.WidthHz > sl.cs.maxWidth:
				t.Fatalf("%s: node %d screened on %.0f Hz (widest %.0f Hz), operates on %.0f Hz width %.0f Hz",
					what, n.ID, sl.cs.center, sl.cs.maxWidth, n.Assignment.CenterHz, n.Assignment.WidthHz)
			}
			slots++
		}
	}
	if slots != len(nw.Nodes) {
		t.Fatalf("%s: %d grid slots for %d members", what, slots, len(nw.Nodes))
	}
	// seen[k] == v marks that victim v holds an edge from member k, whose
	// coupling factor is in[k].
	seen, in := make([]*Node, len(nw.Nodes)), make([]float64, len(nw.Nodes))
	walks := map[discKey][]*Node{}
	for _, v := range nw.Nodes {
		want := discWalkIn(s, nw, v, walks)
		got := s.audibleIn(nil, nw, v)
		if len(got) != len(want) {
			t.Fatalf("%s: victim %d: audibleIn finds %d sources, the disc walk %d", what, v.ID, len(got), len(want))
		}
		for i := range want {
			if got[i].src != want[i].src || math.Float64bits(got[i].w) != math.Float64bits(want[i].w) {
				t.Fatalf("%s: victim %d source #%d: node %d w %x, the disc walk has node %d w %x",
					what, v.ID, i, got[i].src.ID, got[i].w, want[i].src.ID, want[i].w)
			}
		}
		if unscreened > 0 {
			continue
		}
		for _, e := range v.sp.in {
			k := e.src.idx
			if seen[k] == v {
				t.Fatalf("%s: victim %d holds two edges from node %d", what, v.ID, e.src.ID)
			}
			seen[k], in[k] = v, e.w
		}
		if len(v.sp.in) != len(want) {
			t.Fatalf("%s: victim %d has %d in-edges, the disc walk admits %d", what, v.ID, len(v.sp.in), len(want))
		}
		for _, e := range want {
			if k := e.src.idx; seen[k] != v || math.Float64bits(in[k]) != math.Float64bits(e.w) {
				t.Fatalf("%s: victim %d edge from node %d: stored %v w %x, the disc walk has w %x", what, v.ID, e.src.ID, seen[k] == v, in[k], e.w)
			}
		}
	}
	return unscreened
}

// assertAimed requires every member's harmonic slot and suppression
// vector to be, bit for bit, what a fresh gain table of its serving AP's
// TMA at its angle of arrival gives: the harmonic of the strongest entry,
// and per slot k the suppression of entry k against that harmonic's.
func assertAimed(t *testing.T, nw *Network, what string) {
	t.Helper()
	for _, n := range nw.Nodes {
		tbl := n.AP.SDM.GainTable(n.AP.Pose.AngleTo(n.Pose.Pos))
		h := tma.BestHarmonicOf(tbl)
		if n.SDMHarmonic != h || len(n.avec) != len(tbl) {
			t.Fatalf("%s: node %d at AP %d is aimed at harmonic %d over %d slots, its AP sees harmonic %d over %d",
				what, n.ID, n.AP.idx, n.SDMHarmonic, len(n.avec), h, len(tbl))
		}
		own := cmplx.Abs(tbl[h+n.AP.SDM.MaxHarmonic()])
		for k, g := range tbl {
			if want := tmaSuppressionDB(own, cmplx.Abs(g)); math.Float64bits(n.avec[k]) != math.Float64bits(want) {
				t.Fatalf("%s: node %d at AP %d holds suppression %x at slot %d, its AP sees %x", what, n.ID, n.AP.idx, n.avec[k], k, want)
			}
		}
	}
}

// inEdgeLists flattens every member's in-edge list, in membership order:
// the member's ID and edge count, then per edge the source's ID and the
// coupling factor's bits.
func inEdgeLists(nw *Network) []uint64 {
	var out []uint64
	for _, v := range nw.Nodes {
		out = append(out, uint64(v.ID), uint64(len(v.sp.in)))
		for _, e := range v.sp.in {
			out = append(out, uint64(e.src.ID), math.Float64bits(e.w))
		}
	}
	return out
}

// settledEvals settles the engine and records each member's serving-link
// evaluation as a fresh trace gives it now — the record the callers
// compare later traces against, whole. Every up member the settle left
// fresh must hold what the engine keeps of that record, bit for bit: its
// peak power, path class and noise floor, and the report's SNR and class
// built from them.
func settledEvals(t *testing.T, nw *Network, what string) map[*Node]core.Evaluation {
	t.Helper()
	nw.EvaluateSINR()
	rec := make(map[*Node]core.Evaluation, len(nw.Nodes))
	bits := math.Float64bits
	for _, n := range nw.Nodes {
		ev := nw.evaluate(n, n.AP)
		rec[n] = ev
		if n.Down || n.sp.evalStale {
			continue
		}
		sp := &n.sp
		if bits(sp.power) != bits(peakPower(ev)) || sp.class != ev.PathClass || bits(sp.noise) != bits(ev.NoisePowerW) ||
			bits(sp.rep.SNRdB) != bits(ev.SNRWithOTAM) || sp.rep.PathClass != ev.PathClass {
			t.Fatalf("%s: node %d holds power %x class %q noise %x and reports SNR %x class %q; a fresh trace gives %+v",
				what, n.ID, sp.power, sp.class, sp.noise, sp.rep.SNRdB, sp.rep.PathClass, ev)
		}
	}
	return rec
}

// probe is a traffic model that sends nothing and calls fn once per gap:
// the scenarios' hook between events.
type probe struct {
	gap float64
	fn  func()
}

func (p *probe) Next(*stats.RNG) (float64, int) {
	p.fn()
	return p.gap, 0
}

// admissionScenario is one seeded fleet: g×g APs on a side×side m hall,
// start members before Run, joins and leaves planned inside it.
type admissionScenario struct {
	name         string
	g            int
	side         float64
	mode         CouplingMode
	start, joins int
	leaves       int
	duration     float64
	probes       int // MoveNode-and-check hooks, spread evenly over Run
	// lossy runs Run over a lossy side channel with two attempts per
	// exchange, and crashes six more nodes with three reboots each, so
	// that reboot handshakes die after moving a grant.
	lossy bool
}

// admissionScenarios lists the fleets. The two crossover fleets hold
// 768 members in the exact phase, where every victim's disc is the whole
// grid; they dominate the tests' time, so under the race detector, which
// looks for unsynchronised access and not for wrong values, only the
// pruned fleets run.
func admissionScenarios() []admissionScenario {
	all := []admissionScenario{
		{name: "1AP/sparse", g: 1, side: 8, mode: CouplingSparse, start: 40, joins: 12, leaves: 12, duration: 2, probes: 20},
		{name: "16AP/sparse", g: 4, side: 24, mode: CouplingSparse, start: 96, joins: 12, leaves: 12, duration: 2, probes: 20},
		{name: "1AP/lossy", g: 1, side: 8, mode: CouplingSparse, start: 40, joins: 12, leaves: 12, duration: 2, probes: 20, lossy: true},
		{name: "16AP/lossy", g: 4, side: 24, mode: CouplingSparse, start: 96, joins: 12, leaves: 12, duration: 2, probes: 20, lossy: true},
		{name: "1AP/auto", g: 1, side: 8, mode: CouplingAuto, start: sparseCrossover - 2, joins: 8, leaves: 2, duration: 1, probes: 8},
		{name: "16AP/auto", g: 4, side: 24, mode: CouplingAuto, start: sparseCrossover - 2, joins: 8, leaves: 2, duration: 1, probes: 8},
	}
	if raceEnabled {
		return all[:4]
	}
	return all
}

// admissionPose draws a pose anywhere in the hall, facing its nearest AP.
func admissionPose(nw *Network, rng *stats.RNG) channel.Pose {
	w, h := nw.Env.Room.Width, nw.Env.Room.Height
	pos := channel.Vec2{X: rng.Uniform(0.5, w-0.5), Y: rng.Uniform(0.5, h-0.5)}
	return channel.Pose{Pos: pos, Orientation: nw.selectAP(pos).Pose.Pos.Sub(pos).Angle()}
}

// runAdmissionScenario builds the scenario's fleet and runs it, calling
// check after every pre-run join (every 256th in the crossover fleets,
// and the last one) and, inside Run, after every join, leave and roam
// and at every probe: each probe moves a random member with MoveNode
// first. Demands of 1, 10 and 40 Mb/s mix channel widths, run FDM out
// into SDM sharing, and make the leaves promote sharers; two walkers
// sweep the hall; a lossless side channel carries the handshakes (a
// lossy one inside Run for the lossy fleets); nodes 2 and 3 (2 to 9 in
// the lossy fleets) crash and reboot and an AP restarts (its nodes
// re-sync or rejoin at their next renew). With 16 APs a reuse-4 plan and hysteresis roaming run too.
// With walk set, discovery runs the disc walk (Network.discWalk).
func runAdmissionScenario(t *testing.T, sc admissionScenario, seed uint64, walk bool, check func(nw *Network, what string)) RunStats {
	t.Helper()
	room := channel.NewRoom(sc.side, sc.side, stats.NewRNG(seed))
	env := channel.NewEnvironment(room, units.ISM24GHzCenter)
	aps := make([]channel.Vec2, sc.g*sc.g)
	for k := range aps {
		aps[k] = channel.Vec2{X: (float64(k%sc.g) + 0.5) * sc.side / float64(sc.g), Y: (float64(k/sc.g) + 0.5) * sc.side / float64(sc.g)}
	}
	mid := channel.Vec2{X: sc.side / 2, Y: sc.side / 2}
	var nw *Network
	for k, pos := range aps {
		pose := channel.Pose{Pos: pos, Orientation: mid.Sub(pos).Angle()}
		if k == 0 {
			nw = New(env, pose, seed+1000)
		} else if _, err := nw.AddAP(pose); err != nil {
			t.Fatalf("AddAP %d: %v", k, err)
		}
	}
	if err := nw.PlanReuse(min(sc.g*sc.g, 4)); err != nil {
		t.Fatal(err)
	}
	nw.SetCouplingMode(sc.mode)
	if walk {
		nw.discWalk = func(v *Node) []inEdge { return discWalkIn(nw.sparse, nw, v, map[discKey][]*Node{}) }
	}
	if sc.g > 1 {
		nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 2, checkS: 0.1, dwellS: 0.2})
	}
	for k, vx := range []float64{1.2, -0.9} {
		env.AddBlocker(&channel.Blocker{
			Pos:    channel.Vec2{X: sc.side * float64(k+1) / 3, Y: sc.side / 2},
			Radius: 0.35, LossDB: 18, Vel: channel.Vec2{X: vx, Y: 0.4},
		})
	}
	rng := stats.NewRNG(seed ^ 0xAD317)
	demands := []float64{1e6, 10e6, 40e6}
	demand := func() float64 { return demands[rng.Uint64()%3] }

	// Node 1 is the probe; it never leaves or crashes.
	probes := 0
	p := &probe{gap: sc.duration / float64(sc.probes)}
	p.fn = func() {
		probes++
		if len(nw.Nodes) > 1 {
			n := nw.Nodes[1+int(rng.Uint64()%uint64(len(nw.Nodes)-1))]
			nw.MoveNode(n.ID, admissionPose(nw, rng))
		}
		check(nw, fmt.Sprintf("%s: probe %d", sc.name, probes))
	}
	for id := uint32(1); id <= uint32(sc.start); id++ {
		var traffic TrafficModel = Telemetry(0.05)
		if id == 1 {
			traffic = p
		}
		if _, err := nw.Join(id, admissionPose(nw, rng), demand(), traffic); err != nil {
			t.Fatalf("%s: join %d: %v", sc.name, id, err)
		}
		if sc.start < 200 || id%256 == 0 || id == uint32(sc.start) {
			check(nw, fmt.Sprintf("%s: pre-run join %d", sc.name, id))
		}
	}
	if sc.mode == CouplingAuto && !nw.sparse.exact {
		t.Fatalf("%s: the fleet left the exact phase before Run", sc.name)
	}
	at := 0.0
	for i := 0; i < sc.joins; i++ {
		at += rng.Exp(sc.duration / float64(sc.joins))
		id := uint32(10000 + i)
		nw.ScheduleJoin(at, id, admissionPose(nw, rng), demand(), Telemetry(0.05))
	}
	// Nodes 2 up to crashed never leave; the others may.
	crashed := uint32(3)
	if sc.lossy {
		crashed = 9
	}
	at = 0.0
	for i := 0; i < sc.leaves; i++ {
		at += rng.Exp(sc.duration / float64(sc.leaves))
		nw.ScheduleLeave(at, crashed+1+uint32(rng.Uint64()%uint64(uint32(sc.start)-crashed)))
	}
	nw.Faults = faults.NewPlan().
		Crash(0.2*sc.duration, 2).Reboot(0.5*sc.duration, 2).
		Crash(0.3*sc.duration, 3).Reboot(0.7*sc.duration, 3).
		RestartAPAt(0.35*sc.duration, 0.1, len(aps)-1)
	if sc.lossy {
		for id := uint32(4); id <= crashed; id++ {
			f := float64(id) / 40
			nw.Faults.Crash((0.1+f)*sc.duration, id).Reboot((0.35+f)*sc.duration, id).
				Reboot((0.55+f)*sc.duration, id).Reboot((0.75+f)*sc.duration, id)
		}
		nw.Side = faults.Lossy(seed^0x51DE, 0.3, 0.1, 0.05)
		nw.retry.MaxAttempts = 2
	}
	nw.OnMembership = func(event string, id uint32) {
		check(nw, fmt.Sprintf("%s: %s of node %d", sc.name, event, id))
	}
	st := nw.Run(sc.duration, 0.05, -5)
	check(nw, sc.name+": post-run")
	if sc.mode == CouplingAuto && nw.sparse.exact {
		t.Fatalf("%s: the fleet never crossed into the pruned phase", sc.name)
	}
	if st.Control.Crashes != int(crashed)-1 || st.Control.Reboots < 2 || st.Control.APRestarts != 1 || st.Joins == 0 || st.Leaves == 0 || probes < sc.probes {
		t.Fatalf("%s: scenario too tame: %+v, %d joins, %d leaves, %d probes", sc.name, st.Control, st.Joins, st.Leaves, probes)
	}
	if sc.g > 1 && st.Roams == 0 {
		t.Fatalf("%s: no roams", sc.name)
	}
	t.Logf("%s: %d members, %d joins, %d leaves, %d roams (%d failed), %d promotions, %d resyncs, %d rejoins, %d probes",
		sc.name, len(nw.Nodes), st.Joins, st.Leaves, st.Roams, st.RoamsFailed, st.Control.Promotions, st.Control.Resyncs, st.Control.Rejoins, probes)
	return st
}

// firstDiff is the first index at which a and b differ, or -1.
func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestDiscoveryMatchesDiscWalk pins victim-side discovery to the disc
// walk it replaced (assertDiscoveryMatchesDiscWalk) after every event of
// six seeded fleets: 1 and 16 APs (reuse 4), each pruned from the first
// join, pruned over a lossy side channel, and under CouplingAuto across
// the crossover, through churn, MoveNode, roams, promotions, crash/reboot
// and an AP restart. In the lossy fleets, reboot handshakes die after
// moving a down node's grant off its registered channel; there every
// member's in-edge list — sources, coupling bits and order — must equal,
// after every event, the list of the same run made with the disc walk
// doing discovery, and the two runs' statistics must agree. Every check
// also audits each member's aimed state (assertAimed); some roam's
// handshake at the new AP dies, so the fallback to the old AP re-aims.
func TestDiscoveryMatchesDiscWalk(t *testing.T) {
	promotions, unscreened, roamsFailed := 0, 0, 0
	for _, sc := range admissionScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			var got [][]uint64
			st := runAdmissionScenario(t, sc, 41, false, func(nw *Network, what string) {
				assertAimed(t, nw, what)
				u := assertDiscoveryMatchesDiscWalk(t, nw, what)
				if u > 0 && !sc.lossy {
					t.Fatalf("%s: %d unscreened slots over a lossless side channel", what, u)
				}
				unscreened += u
				if sc.lossy {
					got = append(got, inEdgeLists(nw))
				}
			})
			promotions += st.Control.Promotions
			roamsFailed += st.RoamsFailed
			if !sc.lossy {
				return
			}
			var want [][]uint64
			walked := runAdmissionScenario(t, sc, 41, true, func(nw *Network, what string) {
				want = append(want, inEdgeLists(nw))
			})
			if len(got) != len(want) {
				t.Fatalf("%d checks, the disc-walk run %d", len(got), len(want))
			}
			for k := range want {
				if i := firstDiff(got[k], want[k]); i >= 0 {
					g, w, lo := got[k], want[k], max(i-4, 0)
					t.Fatalf("check %d: in-edge lists differ from the disc-walk run's at word %d\ngot  …%v\nwant …%v",
						k, i, g[lo:min(i+4, len(g))], w[lo:min(i+4, len(w))])
				}
			}
			if a, b := fingerprintRunStats(st), fingerprintRunStats(walked); a != b {
				t.Fatalf("run statistics differ from the disc-walk run's\ngot:\n%s\nwant:\n%s", a, b)
			}
		})
	}
	if promotions == 0 || unscreened == 0 || roamsFailed == 0 {
		t.Fatalf("too tame: %d promotions, %d unscreened slots seen, %d failed roams", promotions, unscreened, roamsFailed)
	}
}

// TestSettledEvaluationsAreCurrent is the invariant that lets a join's
// own link evaluation stand in for the settle's (seedEval): after every
// settle, every up member the settle left fresh holds what a fresh trace
// gives, bit for bit (settledEvals). It runs the discovery test's fleets,
// settling at every check, and a fleet whose walker steps between the
// last settle and a Join.
func TestSettledEvaluationsAreCurrent(t *testing.T) {
	checked := 0
	for _, sc := range admissionScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			runAdmissionScenario(t, sc, 42, false, func(nw *Network, what string) {
				settledEvals(t, nw, what)
				for _, n := range nw.Nodes {
					if !n.Down && !n.sp.evalStale { // the members settledEvals compared
						checked++
					}
				}
			})
		})
	}
	if checked == 0 {
		t.Fatal("no member was compared")
	}

	nw := newTestNetwork(43)
	nw.Env.AddBlocker(&channel.Blocker{
		Pos: channel.Vec2{X: 1, Y: 2}, Radius: 0.35, LossDB: 18, Vel: channel.Vec2{X: 1.5, Y: 0.2},
	})
	placeNodes(t, nw, 12, 10e6)
	settledEvals(t, nw, "fleet")
	rng := stats.NewRNG(44)
	for id := uint32(100); id < 110; id++ {
		nw.Env.Step(0.05)
		pose := channel.Pose{Pos: channel.Vec2{X: rng.Uniform(1, 5.5), Y: rng.Uniform(0.5, 3.5)}}
		pose.Orientation = nw.APs[0].Pose.Pos.Sub(pose.Pos).Angle()
		if _, err := nw.Join(id, pose, 10e6, HDCamera(8)); err != nil {
			t.Fatal(err)
		}
		settledEvals(t, nw, fmt.Sprintf("join %d after a walker step", id))
	}
}

// FuzzBestHostChannel compares the indexed host-channel search with the
// oracle's all-members scan (denseBestHostChannel) on channel layouts
// built from bytes:
//
//	[0] the newcomer's slot, [1] exclude: even = none, odd = an
//	occupant's ID, [2] occupants (1–32), [3] leavers (0–3), [4] the
//	newcomer's table; then a pool of four 17-entry gain tables, one byte
//	per entry from five magnitudes (0 included), so suppressions, and
//	with them channel minima, tie often; then per occupant its channel
//	(one of four centers), its slot and its table; then per leaver the
//	occupant that leaves (its channel's minA goes stale).
//
// Missing bytes read as zero.
func FuzzBestHostChannel(f *testing.F) {
	pool := func(level func(i int) byte) []byte {
		b := make([]byte, 4*17)
		for i := range b {
			b[i] = level(i)
		}
		return b
	}
	ones := func(int) byte { return 3 }
	seed := func(head []byte, pool []byte, tail ...byte) []byte {
		return append(append(append([]byte{}, head...), pool...), tail...)
	}
	// Every suppression is 0: the channels tie on it, the one with fewer
	// occupants wins though it comes second.
	f.Add(seed([]byte{8, 0, 2, 0, 0}, pool(ones), 2, 3, 0, 2, 5, 0, 1, 7, 0))
	// The same tie decided by the lower center.
	f.Add(seed([]byte{8, 0, 1, 0, 0}, pool(ones), 2, 3, 0, 1, 7, 0))
	// The excluded occupant is its channel's only one.
	f.Add(seed([]byte{3, 1, 2, 0, 1}, pool(func(i int) byte { return byte(i * 7 % 5) }), 0, 8, 2, 1, 9, 3, 1, 4, 0))
	// Mixed tables, a leaver.
	f.Add([]byte{12, 4, 9, 1, 2, 0, 1, 2, 3, 4, 4, 3, 2, 1, 0, 0, 1, 2, 3, 4, 4, 3, 3, 3, 3, 3, 1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0, 4, 1, 2, 3, 0, 4, 2, 1, 3, 3, 2, 1, 0, 4, 1, 1, 2, 2, 3, 3, 4, 4, 0, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 0, 5, 1, 1, 6, 2, 2, 7, 3, 3, 8, 0, 0, 9, 1, 1, 10, 2, 2, 11, 3, 3, 12, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		levels := [5]float64{0, 0.25, 0.5, 1, 2}
		nw := newTestNetwork(1)
		s := nw.core()
		slots := 2*s.maxM + 1
		table := func(k int) []complex128 {
			tbl := make([]complex128, slots)
			for i := range tbl {
				tbl[i] = complex(levels[at(5+k*slots+i)%5], 0)
			}
			return tbl
		}
		base := 5 + 4*slots
		occupants := 1 + int(at(2))%32
		tbls := map[*Node][]complex128{}
		for i := 0; i < occupants; i++ {
			b := base + 3*i
			n := &Node{Pose: channel.Pose{Pos: channel.Vec2{X: 1 + 0.1*float64(i), Y: 2}}, AP: nw.APs[0]}
			n.ID = uint32(i + 1)
			n.Assignment.CenterHz = 24.05e9 + 20e6*float64(at(b)%4)
			n.Assignment.WidthHz = 10e6
			n.widthHz = n.Assignment.WidthHz
			n.SDMHarmonic = int(at(b+1))%slots - s.maxM
			tbls[n] = table(int(at(b+2)) % 4)
			n.avec = suppressionVector(nil, tbls[n], n.SDMHarmonic)
			n.idx = len(nw.Nodes)
			nw.Nodes = append(nw.Nodes, n)
			nw.nodeIdx[n.ID] = n
			s.registerNode(nw, n)
		}
		tail := base + 3*occupants
		for i := 0; i < int(at(3))%4 && len(nw.Nodes) > 0; i++ {
			k := int(at(tail+i)) % len(nw.Nodes)
			n := nw.Nodes[k]
			s.chanUnregister(n)
			s.gridRemove(n)
			nw.Nodes = append(nw.Nodes[:k], nw.Nodes[k+1:]...)
			delete(nw.nodeIdx, n.ID)
		}
		h := int(at(0))%slots - s.maxM
		tbl := table(int(at(4)) % 4)
		var exclude uint32
		if e := at(1); e%2 == 1 {
			exclude = uint32(int(e/2)%occupants + 1)
		}
		c, ok := s.bestHostChannel(nw, nw.APs[0], h, suppressionVector(nil, tbl, h), exclude)
		wc, wok := denseBestHostChannel(nw, nw.APs[0], h, tbl, tbls, exclude)
		if c != wc || ok != wok {
			t.Fatalf("host channel for slot %d (exclude %d): %v/%v, oracle %v/%v", h, exclude, c, ok, wc, wok)
		}
	})
}
