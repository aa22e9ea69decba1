package simnet

import (
	"fmt"
	"math"
	"math/cmplx"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/faults"
	"mmx/internal/stats"
	"mmx/internal/units"
)

// TestRoamingRunGoldenAgainstSerialScreen pins every roam decision of a
// busy multi-AP run to a fingerprint recorded while the roam check still
// screened and decided node by node on one core. The scene leans on what
// can make a two-phase check differ from that serial one: 4 APs at reuse
// 2 over the sparse core, dense enough that every AP hosts SDM sharers of
// mixed widths, walkers shading serving paths (the screen widens), short
// holds (roamHoldUntil gates many nodes), Poisson churn, and nodes carried
// across cells between runs. The observer below shows that at least one
// pass holds a roamer whose release promotes a sharer the same pass
// screens later — the one thing the check reads (the sharer's noise
// floor) that an earlier decision of the same pass can change. Refresh
// with UPDATE_GOLDEN=1 only for an intentional behavior change. The run
// is checked at one worker and at eight: the screen's lane count must
// not reach a decision.
func TestRoamingRunGoldenAgainstSerialScreen(t *testing.T) {
	got := roamGoldenRun(t, 1)
	golden := filepath.Join("testdata", "golden_roam_run.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("refreshed %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture (run with UPDATE_GOLDEN=1 to capture): %v", err)
	}
	for _, workers := range []int{1, 8} {
		if workers != 1 {
			got = roamGoldenRun(t, workers)
		}
		if got != string(want) {
			t.Fatalf("Workers=%d: roaming run diverged from the serial-screen golden\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// roamGoldenRun runs the roam golden's scene at the given worker count
// and returns its fingerprint.
func roamGoldenRun(t *testing.T, workers int) string {
	t.Helper()
	const seed = 62
	nw := newTestNetwork(seed)
	nw.Workers = workers
	addExtraAPs(t, nw, 4)
	if err := nw.PlanReuse(2); err != nil {
		t.Fatal(err)
	}
	nw.SetCouplingMode(CouplingSparse)
	nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 1, checkS: 0.1, dwellS: 0.3})
	for _, b := range []*channel.Blocker{
		{Pos: channel.Vec2{X: 1.0, Y: 2.0}, Radius: 0.35, LossDB: 18, Vel: channel.Vec2{X: 1.4, Y: 0.3}},
		{Pos: channel.Vec2{X: 4.5, Y: 1.0}, Radius: 0.3, LossDB: 15, Vel: channel.Vec2{X: -1.1, Y: 0.8}},
		{Pos: channel.Vec2{X: 3.0, Y: 3.2}, Radius: 0.3, LossDB: 12, Vel: channel.Vec2{X: 0.6, Y: -1.2}},
	} {
		nw.Env.AddBlocker(b)
	}

	rng := stats.NewRNG(seed ^ 0x50A3)
	demands := []float64{4e6, 16e6, 40e6}
	pose := func() channel.Pose {
		pos := channel.Vec2{X: rng.Uniform(0.5, 5.5), Y: rng.Uniform(0.4, 3.6)}
		ap := nw.selectAP(pos)
		return channel.Pose{Pos: pos, Orientation: ap.Pose.Pos.Sub(pos).Angle() + rng.Uniform(-0.4, 0.4)}
	}
	const nStart = 64
	for i := 0; i < nStart; i++ {
		id := uint32(i + 1)
		if _, err := nw.Join(id, pose(), demands[rng.Intn(len(demands))], Telemetry(0.05)); err != nil {
			t.Fatalf("join %d: %v", id, err)
		}
	}
	sharers := make([]int, len(nw.APs))
	for _, n := range nw.Nodes {
		if n.Shared {
			sharers[n.AP.idx]++
		}
	}
	for i, c := range sharers {
		if c == 0 {
			t.Fatalf("AP %d hosts no SDM sharer (%v): the scene is too sparse", i, sharers)
		}
	}

	// The observer: a snapshot of every member's AP and sharer status,
	// refreshed after each membership event. The side channel is perfect
	// and nothing crashes, so between two events only a failed roam (no
	// event fires) can promote anyone; a "roam" with no failed roam since
	// the last event therefore owns every sharer→owner change at its old
	// AP.
	type snap struct {
		ap     *AccessPoint
		shared bool
	}
	last := map[uint32]snap{}
	refresh := func() {
		clear(last)
		for _, n := range nw.Nodes {
			last[n.ID] = snap{n.AP, n.Shared}
		}
	}
	lastFailed, promotedLater := 0, 0
	nw.OnMembership = func(event string, id uint32) {
		rs := nw.run
		if event == "roam" && rs.roamsFailed == lastFailed {
			r := nw.nodeByID(id)
			from, now := last[id].ap, rs.sim.Now()
			for _, m := range nw.Nodes[r.idx+1:] {
				if s, ok := last[m.ID]; ok && s.shared && !m.Shared && m.AP == from && !m.Down && now >= m.roamHoldUntil {
					promotedLater++
				}
			}
		}
		lastFailed = rs.roamsFailed
		refresh()
	}

	var got strings.Builder
	nextID := uint32(1000)
	for seg := 0; seg < 3; seg++ {
		if seg > 0 {
			// Carry a few members across cells: each lands nearer
			// another AP, facing it, so the next checks roam it.
			for k := 0; k < 6; k++ {
				n := nw.Nodes[rng.Intn(len(nw.Nodes))]
				for {
					p := pose()
					if nw.selectAP(p.Pos) != n.AP {
						nw.MoveNode(n.ID, p)
						break
					}
				}
			}
		}
		at := 0.0
		for i := 0; i < 8; i++ {
			at += rng.Exp(0.08)
			nw.ScheduleJoin(at, nextID, pose(), demands[rng.Intn(len(demands))], Telemetry(0.05))
			nextID++
		}
		at = 0.0
		for i := 0; i < 6; i++ {
			at += rng.Exp(0.1)
			nw.ScheduleLeave(at, nw.Nodes[rng.Intn(len(nw.Nodes))].ID)
		}
		refresh()
		st := nw.Run(1.0, 0.05, 10)
		fmt.Fprintf(&got, "segment %d\n%s", seg, fingerprintMultiAP(st))
		if err := nw.ValidateSpectrum(); err != nil {
			t.Fatalf("segment %d: spectrum: %v", seg, err)
		}
	}
	if promotedLater == 0 {
		t.Error("no roam promoted a sharer the same pass screens later: the scene no longer covers the noise-floor read")
	}
	return got.String()
}

// roamPick is one candidate of a roam check: the member and its
// candidate.
type roamPick struct {
	n *Node
	roamCand
}

// roamPicks lists the candidates the roam check in progress found,
// member by member in the order it screened them.
func roamPicks(rs *runState) []roamPick {
	var out []roamPick
	for i, n := range rs.roamList {
		sp := rs.roamSpans[i]
		for _, c := range rs.roamLanes[sp.lane].cand[sp.lo:sp.hi] {
			out = append(out, roamPick{n, c})
		}
	}
	return out
}

// fullScanCands is the reference a roam check is pinned to: the screen
// as it ran before the roam list and the cached candidate links, over
// every member in membership order, tracing every candidate afresh.
func fullScanCands(nw *Network) []roamPick {
	var out []roamPick
	now := nw.run.sim.Now()
	for _, n := range nw.Nodes {
		if n.Down || now < n.roamHoldUntil {
			continue
		}
		cur := n.AP
		dCur := n.Pose.Pos.Dist(cur.Pose.Pos)
		limit := dCur
		if n.sp.rep.PathClass != "los" {
			limit = 4 * dCur
		}
		for _, ap := range nw.APs {
			if ap == cur || ap.down {
				continue
			}
			if d := n.Pose.Pos.Dist(ap.Pose.Pos); d >= limit {
				continue
			}
			ev := nw.evaluate(n, ap)
			g := math.Max(cmplx.Abs(ev.G0), cmplx.Abs(ev.G1))
			out = append(out, roamPick{n, roamCand{ap: ap, p: g * g}})
		}
	}
	return out
}

// canRoam is the test's own reading of the roam list's rule: a member
// can have a candidate unless it is line-of-sight to its serving AP and
// no AP lies strictly closer.
func canRoam(nw *Network, n *Node) bool {
	if n.sp.rep.PathClass != "los" {
		return true
	}
	dCur := n.Pose.Pos.Dist(n.AP.Pose.Pos)
	for _, ap := range nw.APs {
		if ap != n.AP && n.Pose.Pos.Dist(ap.Pose.Pos) < dCur {
			return true
		}
	}
	return false
}

// roamTally is what the full-scan oracle saw over a scene: checks, the
// members they screened, the candidates they found and how many of those
// were read cached.
type roamTally struct {
	checks, screened, cands, cached int
}

// checkRoamAgainstFullScan installs the roamCheck hook on nw: at every
// check, the members screened must be exactly the members that can roam,
// in membership order, and the candidates — member, AP and power bits —
// exactly what fullScanCands finds.
func checkRoamAgainstFullScan(t testing.TB, nw *Network, tally *roamTally) {
	nw.roamCheck = func() {
		tally.checks++
		at := nw.run.sim.Now()
		screened, got := nw.run.roamList, roamPicks(nw.run)
		var want []*Node
		for _, n := range nw.Nodes {
			if canRoam(nw, n) {
				want = append(want, n)
			}
		}
		if !slices.Equal(screened, want) {
			ids := func(ns []*Node) (out []uint32) {
				for _, n := range ns {
					out = append(out, n.ID)
				}
				return out
			}
			t.Fatalf("t=%g: the check screened %v, the members that can roam are %v", at, ids(screened), ids(want))
		}
		ref := fullScanCands(nw)
		for i := 0; i < max(len(got), len(ref)); i++ {
			if i >= len(got) || i >= len(ref) || got[i].n != ref[i].n || got[i].ap != ref[i].ap ||
				math.Float64bits(got[i].p) != math.Float64bits(ref[i].p) {
				var g, r roamPick
				if i < len(got) {
					g = got[i]
				}
				if i < len(ref) {
					r = ref[i]
				}
				desc := func(c roamPick) string {
					if c.n == nil {
						return "none"
					}
					return fmt.Sprintf("node %d → AP %d at %x", c.n.ID, c.ap.idx, c.p)
				}
				t.Fatalf("t=%g: candidate %d of %d: the check has %s, a full scan %s (of %d)", at, i, len(got), desc(g), desc(r), len(ref))
			}
		}
		tally.screened += len(screened)
		tally.cands += len(got)
		for _, c := range got {
			if !c.traced {
				tally.cached++
			}
		}
	}
}

// callback is a traffic model that sends nothing: it calls fn at every
// frame time, Run's start included, and waits the gap fn returns.
type callback func() float64

func (f callback) Next(*stats.RNG) (float64, int) { return f(), 0 }

// roamScene is one deployment the full-scan oracle runs on: aps APs
// along the long axis of a 12×6 m room at a reuse of 2, nodes members
// spread over it, one blocker parked in the line of sight of two nodes
// beside AP 0 (they stay non-line-of-sight, so the screen widens for
// them to far APs), walkers walkers, and three runs with Poisson churn,
// and a crash, a reboot and an AP restart in the first. Between the runs
// moves members are carried across a cell boundary: most keep facing
// their AP (boundary nodes that stay unroamed, with a closer AP to screen
// at every check), the rest face the closer AP. One member of AP 0 is set
// down midway between AP 0 and AP 1 (as far from both, to the bit, at
// four APs). During the runs a traffic callback carries a member that
// cannot roam across a boundary 5 ms before every check, with nothing
// settling in between.
type roamScene struct {
	seed           uint64
	aps, nodes     int
	walkers, moves int
	hystDB         float64
	workers        int
}

func (sc roamScene) run(t testing.TB, tally *roamTally) (roams int) {
	t.Helper()
	const w, h = 12.0, 6.0
	rng := stats.NewRNG(sc.seed)
	env := channel.NewEnvironment(channel.NewRoom(w, h, rng), units.ISM24GHzCenter)
	at := make([]channel.Vec2, sc.aps)
	for k := range at {
		at[k] = channel.Vec2{X: (float64(k) + 0.5) * w / float64(sc.aps), Y: h / 2}
	}
	nw := apNetwork(t, env, sc.seed, at, 2)
	nw.Workers = sc.workers
	nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: sc.hystDB, checkS: 0.1, dwellS: 0.3})
	checkRoamAgainstFullScan(t, nw, tally)

	facing := func(pos, to channel.Vec2, jitter float64) channel.Pose {
		return channel.Pose{Pos: pos, Orientation: to.Sub(pos).Angle() + rng.Uniform(-jitter, jitter)}
	}
	uniform := func() channel.Vec2 { return channel.Vec2{X: rng.Uniform(0.3, w-0.3), Y: rng.Uniform(0.3, h-0.3)} }
	id := uint32(0)
	join := func(pos channel.Vec2, traffic TrafficModel) *Node {
		id++
		n, err := nw.Join(id, facing(pos, nw.selectAP(pos).Pose.Pos, 0.4), 2e6, traffic)
		if err != nil {
			t.Fatalf("join %d: %v", id, err)
		}
		return n
	}
	park := at[0].Add(channel.Vec2{X: -0.6, Y: -0.8})
	env.AddBlocker(&channel.Blocker{Pos: park, Radius: 0.3, LossDB: 15})
	for _, k := range []float64{2, 2.3} {
		join(at[0].Add(park.Sub(at[0]).Scale(k)), Telemetry(0.05))
	}
	for i := 0; i < sc.nodes; i++ {
		join(uniform(), Telemetry(0.05))
	}
	for k := 0; k < sc.walkers; k++ {
		env.AddBlocker(&channel.Blocker{
			Pos: uniform(), Radius: 0.25 + 0.05*float64(k%3), LossDB: 12 + 3*float64(k%3),
			Vel: channel.Vec2{X: rng.Uniform(-2, 2), Y: rng.Uniform(-1.5, 1.5)},
		})
	}

	// carry moves n to a spot nearer another AP than its own, facing its
	// own AP or the nearer one.
	carry := func(n *Node, faceOld bool) {
		to := nw.APs[(n.AP.idx+1+rng.Intn(len(nw.APs)-1))%len(nw.APs)]
		pos := to.Pose.Pos.Add(n.AP.Pose.Pos.Sub(to.Pose.Pos).Scale(rng.Uniform(0.1, 0.4)))
		pos.Y = min(max(pos.Y+rng.Uniform(-2, 2), 0.3), h-0.3)
		aim := to.Pose.Pos
		if faceOld {
			aim = n.AP.Pose.Pos
		}
		nw.MoveNode(n.ID, facing(pos, aim, 0.2))
	}
	var carrier *Node
	carrier = join(uniform(), callback(func() float64 {
		now := nw.run.sim.Now()
		if now == 0 {
			return 0.095
		}
		for _, n := range nw.Nodes {
			if n != carrier && !n.Down && now >= n.roamHoldUntil && !canRoam(nw, n) {
				carry(n, rng.Intn(2) == 0)
				break
			}
		}
		return 0.1
	}))
	fixed := map[*Node]bool{nw.Nodes[0]: true, nw.Nodes[1]: true, carrier: true}
	pick := func() *Node {
		for {
			if n := nw.Nodes[rng.Intn(len(nw.Nodes))]; !fixed[n] {
				return n
			}
		}
	}

	victim := pick().ID
	nw.Faults = faults.NewPlan().Crash(0.33, victim).Reboot(0.61, victim).RestartAPAt(0.45, 0.2, 1)
	for seg := 0; seg < 3; seg++ {
		if seg > 0 {
			nw.Faults = nil
			for k := 0; k < sc.moves; k++ {
				carry(pick(), k%3 != 0)
			}
			for _, n := range nw.Nodes {
				if !fixed[n] && n.AP == nw.APs[0] {
					pos := channel.Vec2{X: (at[0].X + at[1].X) / 2, Y: 1}
					nw.MoveNode(n.ID, facing(pos, at[0], 0))
					break
				}
			}
		}
		tj, tl := 0.0, 0.0
		for i := 0; i < 4; i++ {
			tj += rng.Exp(0.2)
			id++
			pos := uniform()
			nw.ScheduleJoin(tj, id, facing(pos, nw.selectAP(pos).Pose.Pos, 0.4), 2e6, Telemetry(0.05))
		}
		for i := 0; i < 3; i++ {
			tl += rng.Exp(0.25)
			nw.ScheduleLeave(tl, pick().ID)
		}
		st := nw.Run(1, 0.07, 10)
		if err := nw.ValidateSpectrum(); err != nil {
			t.Fatalf("run %d: spectrum: %v", seg, err)
		}
		roams += st.Roams
	}
	return roams
}

// TestRoamCheckMatchesFullScan pins every roam check to the full scan it
// replaced (checkRoamAgainstFullScan): the members it screens are exactly
// the ones that can roam, and its candidates, cached or traced, are a
// fresh trace's to the bit. The busy scene runs roamScene at one worker
// and at eight. The crash scene is the one case a dropped watch exists
// for: node X, moved next to an AP no member is served by (so X has no
// cross-AP edge whose return would force a re-trace), watches it; X
// crashes, a walker steps onto the watched path while X is down (the eval
// pass does not refresh a down node's powers), and X reboots while the
// walker is still there.
func TestRoamCheckMatchesFullScan(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var tally roamTally
		roams := roamScene{seed: 71, aps: 4, nodes: 40, walkers: 3, moves: 6, hystDB: 3, workers: workers}.run(t, &tally)
		if roams == 0 || tally.cached == 0 || tally.cands == tally.cached {
			t.Errorf("workers=%d: %d roams, %d of %d candidates read cached — the scene does not reach both sides of the cache",
				workers, roams, tally.cached, tally.cands)
		}
		t.Logf("workers=%d: %d checks screened %d members, found %d candidates, %d of them cached; %d roams",
			workers, tally.checks, tally.screened, tally.cands, tally.cached, roams)
	}

	t.Run("crash", func(t *testing.T) {
		room := channel.NewRoom(12, 6, stats.NewRNG(72))
		env := channel.NewEnvironment(room, units.ISM24GHzCenter)
		a0, a1 := channel.Vec2{X: 1.5, Y: 3}, channel.Vec2{X: 10.5, Y: 3}
		nw := apNetwork(t, env, 72, []channel.Vec2{a0, a1}, 2)
		nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 30, checkS: 0.1})
		var tally roamTally
		checkRoamAgainstFullScan(t, nw, &tally)
		rng := stats.NewRNG(73)
		for i := 1; i <= 12; i++ {
			pos := channel.Vec2{X: rng.Uniform(0.5, 5), Y: rng.Uniform(0.5, 5.5)}
			if _, err := nw.Join(uint32(i), channel.Pose{Pos: pos, Orientation: a0.Sub(pos).Angle()}, 2e6, Telemetry(0.05)); err != nil {
				t.Fatal(err)
			}
		}
		x := nw.Nodes[0]
		xp := channel.Vec2{X: 7, Y: 1.5}
		nw.MoveNode(x.ID, channel.Pose{Pos: xp, Orientation: a1.Sub(xp).Angle()})
		// The walker crosses the middle of X's direct path to AP 1
		// square-on, on it from 0.35 s to 0.85 s.
		d := a1.Sub(xp)
		across := channel.Vec2{X: -d.Y, Y: d.X}.Scale(1 / d.Len())
		const speed, radius = 1.2, 0.3
		mid := xp.Add(d.Scale(0.5))
		env.AddBlocker(&channel.Blocker{
			Pos: mid.Sub(across.Scale(radius + 0.35*speed)), Vel: across.Scale(speed), Radius: radius, LossDB: 15,
		})
		nw.Faults = faults.NewPlan().Crash(0.25, x.ID).Reboot(0.55, x.ID)
		type seen struct{ at, p float64 }
		var xs []seen
		inner := nw.roamCheck
		nw.roamCheck = func() {
			inner()
			for _, c := range roamPicks(nw.run) {
				if c.n == x {
					xs = append(xs, seen{nw.run.sim.Now(), c.p})
				}
			}
		}
		nw.Run(1, 0.05, 10)
		for _, n := range nw.Nodes {
			if n.AP != nw.APs[0] {
				t.Fatalf("node %d roamed to AP %d: AP 1 must serve no one", n.ID, n.AP.idx)
			}
		}
		var before, after []float64
		for _, s := range xs {
			if s.at < 0.25 {
				before = append(before, s.p)
			} else if s.at > 0.55 && s.at < 0.85 {
				after = append(after, s.p)
			}
		}
		if len(before) == 0 || len(after) == 0 || before[len(before)-1] == after[0] {
			t.Fatalf("X's power at AP 1: %v before the crash, %v after the reboot — the walker did not change the watched link while X was down", before, after)
		}
	})
}

// FuzzRoamCheck runs roamScene under the full-scan oracle over generated
// seeds, AP counts, fleet sizes, walkers, moves and hysteresis.
func FuzzRoamCheck(f *testing.F) {
	f.Add(uint64(71), uint8(4), uint8(40), uint8(3), uint8(6), 3.0)
	f.Add(uint64(5), uint8(2), uint8(10), uint8(1), uint8(2), 0.0)
	f.Add(uint64(9), uint8(6), uint8(60), uint8(5), uint8(12), 8.0)
	f.Fuzz(func(t *testing.T, seed uint64, aps, nodes, walkers, moves uint8, hystDB float64) {
		if math.IsNaN(hystDB) || math.IsInf(hystDB, 0) {
			t.Skip("non-finite hysteresis")
		}
		sc := roamScene{
			seed: seed, aps: 2 + int(aps)%5, nodes: 4 + int(nodes)%60, walkers: int(walkers) % 6,
			moves: int(moves) % 12, hystDB: math.Min(math.Max(hystDB, -5), 20), workers: 1 + int(seed%3),
		}
		sc.run(t, &roamTally{})
	})
}
