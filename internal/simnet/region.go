package simnet

import (
	"math"

	"mmx/internal/channel"
	"mmx/internal/par"
)

// This file maps a blocker's swept region (channel.SweptRegion) onto the
// set of nodes whose cached link evaluations it changed, using the sparse
// core's 128×128 pose grid. The contract is exact per leg, with a
// conservative grid prefilter: every node whose evaluation changes is
// marked, and a node is marked only when some leg of one of its paths
// flips its blockage indicator between the capsule's two ends.
//
// Blockage enters a link evaluation exactly one way: a path leg (node →
// reflection point → … → AP) pays a blocker's LossDB iff the leg passes
// within Radius of the blocker's position (blockageLossDB). A path's
// BlockageLossDB is a fixed-order sum of those per-leg, per-blocker
// indicators, and everything else about it is static geometry, so a
// node's evaluation is bit-identical across a blocker change unless the
// indicator of some leg differs between the old and the new position
// (channel.Environment.BlockageFlips; a blocker that just appeared has no
// old position, so any leg within reach of it flips). That is the leaf
// test. By induction over syncs every node left unmarked caches exactly
// what a fresh trace at the last sync's blocker positions gives, and a
// region chained over several epochs is tested one capsule at a time,
// which can only mark more.
//
// The prefilter finds the nodes that can have such a leg at all: every
// leg that flips comes within Radius of the swept capsule. The image
// method makes that testable without enumerating per-node paths:
// unfolding a k-bounce path across its walls straightens it into the
// segment node → apex, where the apex is the AP mirrored through the
// reflection walls (in first-hit order),
// and each leg's unfolded image is a subsegment of that line. Mirroring
// is an isometry, so "leg within R of capsule K" is equivalent to
// "unfolded leg within R of the correspondingly mirrored capsule". A
// corridor therefore holds one apex plus one capsule variant per leg
// (K, M₁(K), M₁(M₂(K))), and the per-node test collapses to: does
// segment(node, apex) come within reach of any variant? Testing the
// whole unfolded segment instead of the exact leg subsegments is a
// further conservative superset.
//
// The grid turns the per-node test into a walk over the cells that can
// matter. A node p can pass it for capsule variant c only inside c's
// sector from the apex (the capsule's supporting cone, two half-planes)
// and only when p lies at least dist(apex, capsule) − reach from the apex,
// since every point of segment(p, apex) is within |p − apex| of it. A
// corridor leads to one AP, and only the nodes caching a link towards that
// AP can be dirtied by it; they all lie inside the AP's listener box. So
// for each capsule variant the walk clips the box by the sector, walks the
// clipped polygon's rows, turns each row's x-extent into a cell range with
// cellIndex's own clamp (the boundary rows and columns are open-ended, so
// a node clamped in from outside the room is covered), skips cells wholly
// nearer to the apex than the capsule's reach allows, and visits each
// remaining cell once per corridor, so a corridor costs the cells inside
// its cones. The walks of one tick are independent of each other, so
// mapRegions runs them on the worker pool. A node in a visited cell meets
// the corridor test (nearNode), a few dot products, first, and only then
// the exact leaf test, which solves the path's reflection points.

// sweptSlack pads the corridor admission radius. The blockage indicator
// and the corridor tests run different (individually exact) float
// sequences, so a leg sitting numerically on the radius boundary could
// otherwise fall on opposite sides; one micrometer dwarfs the rounding
// of a handful of float64 ops at room scale and is irrelevant against
// any physical blocker radius. The leaf test runs the indicator's own
// arithmetic and takes no slack.
const sweptSlack = 1e-6

// corridor is one unfolded propagation geometry (direct, or via one or
// two reflection walls): the mirrored-AP apex, the capsule variant to
// test each leg against, and each variant's angular sector from the apex
// (which bounds the cells the walk visits). Everything but apex, apPos, ap
// and secs is a property of
// the capsule and the walls alone: appendCorridors fills that part once
// per capsule, and aim points a worker's copy of it at one AP after
// another.
type corridor struct {
	apex  channel.Vec2
	apPos channel.Vec2 // the AP itself, where the path ends
	ap    int          // index of the AP the corridor leads to
	caps  [3]channel.SweptRegion
	secs  [3]sector
	// walls index the reflecting walls in channel.Room.Wall's order, node
	// side first; the apex is the AP mirrored through them, last wall
	// first.
	walls [2]int
	// gates are the unfolded reflecting walls (w1, then M1(w2)) that
	// segment(node, apex) must actually cross for this corridor's path
	// to exist. Path existence is pure geometry — blockers only add
	// loss — so skipping nodes that miss a gate is sound, and it is
	// what keeps double-bounce corridors from marking whole strips of
	// nodes that have no such path.
	gates  [2]channel.Segment
	nCaps  int
	nGates int
}

// sector is the supporting cone of an inflated capsule seen from the
// corridor apex: every node position p whose segment(p, apex) comes
// within reach of the capsule spine lies inside it (the ray apex→p must
// enter the capsule's convex hull, so its direction falls in the cone).
// The cone of a hull of two discs is exactly the hull of the two discs'
// tangent cones, so the bounding angular interval is exact, and no node
// outside either boundary half-plane is affected.
type sector struct {
	n1, n2 channel.Vec2 // inward normals of the cone's boundary rays
	all    bool         // apex inside the capsule or cone ≥ π: no prune
	none   bool         // the capsule is out of reach of the whole walk
}

func makeSector(apex channel.Vec2, k channel.SweptRegion) sector {
	reach := k.Radius + sweptSlack
	if k.Seg.DistanceTo(apex) <= reach {
		return sector{all: true}
	}
	da := k.Seg.A.Sub(apex)
	db := k.Seg.B.Sub(apex)
	pha := math.Asin(reach / da.Len())
	phb := math.Asin(reach / db.Len())
	// Circle A subtends [-pha, pha] around its center direction; circle
	// B sits at delta = angle(db) − angle(da) and subtends ±phb.
	delta := math.Atan2(da.X*db.Y-da.Y*db.X, da.X*db.X+da.Y*db.Y)
	lo := min(-pha, delta-phb)
	hi := max(pha, delta+phb)
	if hi-lo >= math.Pi {
		return sector{all: true} // half-plane SAT can't represent this
	}
	tha := math.Atan2(da.Y, da.X)
	sinLo, cosLo := math.Sincos(tha + lo)
	sinHi, cosHi := math.Sincos(tha + hi)
	return sector{
		n1: channel.Vec2{X: -sinLo, Y: cosLo}, // inside: rel · n1 ≥ 0
		n2: channel.Vec2{X: sinHi, Y: -cosHi}, // inside: rel · n2 ≥ 0
	}
}

func (sc *sector) admitsPoint(apex, p channel.Vec2) bool {
	if sc.all || sc.none {
		return sc.all
	}
	rx := p.X - apex.X
	ry := p.Y - apex.Y
	return rx*sc.n1.X+ry*sc.n1.Y >= 0 && rx*sc.n2.X+ry*sc.n2.Y >= 0
}

// newCorridor assembles the AP-independent part of a corridor: n capsule
// variants and the reflecting walls (node side first) with their
// unfolded images, the gates.
func newCorridor(caps [3]channel.SweptRegion, n int, walls [2]int, gates [2]channel.Segment) corridor {
	return corridor{caps: caps, nCaps: n, walls: walls, gates: gates, nGates: n - 1}
}

// aim points the corridor at one AP: the apex is the AP unfolded through
// the corridor's walls. The sectors, which take trigonometry, wait for
// aimSectors, so a corridor whose gates leave nothing to walk skips them.
func (co *corridor) aim(room *channel.Room, ap *AccessPoint) {
	apex := ap.Pose.Pos
	for g := co.nGates - 1; g >= 0; g-- {
		apex = room.Wall(co.walls[g]).Seg.MirrorAcross(apex)
	}
	co.apex, co.apPos, co.ap = apex, ap.Pose.Pos, ap.idx
}

// aimSectors sets each capsule variant's sector as seen from the apex and
// reports whether any can matter to a node in gc (see gateCone). A node
// outside gc misses a gate, and a node p inside it has its segment to the
// apex inside the bounding box of gc and the apex, and no farther from the
// apex than |p − apex|. A variant out of reach of that box, or nearer to
// no point of gc than dist(apex, capsule) − reach, therefore gets the
// sector that admits nothing, without the trigonometry.
func (co *corridor) aimSectors(gc *cone) bool {
	hull := emptyBox()
	hull.grow(co.apex)
	far2 := 0.0
	for _, v := range gc.v[:gc.n] {
		hull.grow(v)
		d := v.Sub(co.apex)
		far2 = max(far2, d.Dot(d))
	}
	live := false
	for c := 0; c < co.nCaps; c++ {
		k := &co.caps[c]
		if !hull.nearCapsule(k) {
			co.secs[c] = sector{none: true}
			continue
		}
		if near := k.Seg.DistanceTo(co.apex) - k.Radius - 2*sweptSlack; near > 0 && far2 < near*near {
			co.secs[c] = sector{none: true}
			continue
		}
		co.secs[c] = makeSector(co.apex, *k)
		live = true
	}
	return live
}

// mayReach is aimSectors' first screen on the whole listener box b: can
// some capsule variant come within reach of a segment from a point of b
// to the apex?
func (co *corridor) mayReach(b *box) bool {
	hull := *b
	hull.grow(co.apex)
	for c := 0; c < co.nCaps; c++ {
		if hull.nearCapsule(&co.caps[c]) {
			return true
		}
	}
	return false
}

// flips is the exact leaf test: does the capsule flip the blockage of a
// leg of the path this corridor stands for, from p to the corridor's AP?
func (co *corridor) flips(env *channel.Environment, p channel.Vec2) bool {
	return env.BlockageFlips(p, co.apPos, co.nCaps-1, co.walls[0], co.walls[1], co.caps[0])
}

func mirrorSeg(w, s channel.Segment) channel.Segment {
	return channel.Segment{A: w.MirrorAcross(s.A), B: w.MirrorAcross(s.B)}
}

func mirrorRegion(w channel.Segment, k channel.SweptRegion) channel.SweptRegion {
	return channel.SweptRegion{Seg: mirrorSeg(w, k.Seg), Radius: k.Radius}
}

// appendCorridors appends the unfolded corridors for swept region k,
// mirroring appendPaths' path set: the direct segment, one bounce off
// every wall, and every ordered wall pair up to MaxReflections. The
// mirrored capsules and gates depend on the walls alone, so the list is
// built once per capsule and each work item aims a copy at its AP.
// Paths the enumeration would reject (reflection point off the wall,
// wrong side) only shrink the true affected set, so including their
// corridors unconditionally is conservative; the leaf test rejects them.
func appendCorridors(env *channel.Environment, out []corridor, k channel.SweptRegion) []corridor {
	out = append(out, newCorridor([3]channel.SweptRegion{k}, 1, [2]int{}, [2]channel.Segment{}))
	room := env.Room
	walls := room.NumWalls()
	if env.MaxReflections < 1 {
		walls = 0
	}
	for i := 0; i < walls; i++ {
		w1 := room.Wall(i).Seg
		// Single bounce off w1: legs node→rp and rp→AP unfold onto
		// node→M₁(AP); the second leg's image needs the mirrored capsule.
		k1 := mirrorRegion(w1, k)
		out = append(out, newCorridor([3]channel.SweptRegion{k, k1}, 2,
			[2]int{i}, [2]channel.Segment{w1}))
		if env.MaxReflections < 2 {
			continue
		}
		for j := 0; j < walls; j++ {
			if j == i {
				continue
			}
			w2 := room.Wall(j).Seg
			// Double bounce w1 then w2 (node side first, matching
			// reflectionPoints2): apex M₁(M₂(AP)), legs test against
			// K, M₁(K), M₁(M₂(K)).
			out = append(out, newCorridor(
				[3]channel.SweptRegion{k, k1, mirrorRegion(w1, mirrorRegion(w2, k))}, 3,
				[2]int{i, j}, [2]channel.Segment{w1, mirrorSeg(w1, w2)}))
		}
	}
	return out
}

// mapItem is one work item of the mapping fan-out: corridor corr of the
// tick's list aimed at AP ap. It left its candidates in
// lanes[lane].cand[lo:hi].
type mapItem struct {
	corr, ap     int32
	lane, lo, hi int32
}

// workLane is one worker's share of a fan-out. The mapping keeps its
// scratch there: the corridor it is walking, aimed at the current item's
// AP, the environment its leaf test traces in, the current item's cells
// and the nodes in them with their positions, and the candidates of
// every item it ran. Both the mapping and the eval pass count into work,
// which the serial merge after each adds to the network's totals, so
// counting takes neither atomics nor allocation.
type workLane struct {
	co    corridor
	env   *channel.Environment
	cells []int32
	nodes []*Node
	pos   []channel.Vec2
	cand  []*Node
	work  WorkStats
}

// growLanes makes sure there is a lane for each worker par.For runs n
// items on.
func (s *sparseState) growLanes(workers, n int) {
	if lanes := par.Lanes(workers, n); len(s.lanes) < lanes {
		s.lanes = append(s.lanes, make([]workLane, lanes-len(s.lanes))...)
	}
}

// foldLanes adds the lanes' counts to the network's totals and zeroes
// them.
func (s *sparseState) foldLanes(nw *Network) {
	for i := range s.lanes {
		nw.work.add(s.lanes[i].work)
		s.lanes[i].work = WorkStats{}
	}
}

// mapRegions marks evalStale every node whose cached evaluations one of
// the swept regions changed — the region-scoped replacement for
// the stale-everything epoch response. A node caches exactly the links
// it listens on: the one towards its serving AP (sp.power, sp.class) and,
// while it has victims served at AP j or a roam check watches j
// (sp.cross[j].live()), its power there (sp.cross[j].power). A corridor
// towards AP j therefore only needs to reach the nodes listening to j; a
// power left to go stale while unreferenced is recomputed before anyone
// reads it, because addEdge forces an evaluation on the 0→1 transition of
// the edge count and watch stores a fresh trace.
//
// Each (region, AP, corridor) triple is a work item, and the items fan
// out over the worker pool. A walk only collects candidates, so during
// the fan-out nothing writes node state or listener boxes and every read
// of evalStale is race-free. The serial merge then marks the candidates
// item by item in the order a single loop over regions, APs and corridors
// visits them, which keeps s.dirty's order independent of Workers.
func (s *sparseState) mapRegions(nw *Network, regions []channel.SweptRegion) {
	corridors, items := s.corridorScratch[:0], s.mapItems[:0]
	for _, k := range regions {
		first := len(corridors)
		corridors = appendCorridors(nw.Env, corridors, k)
		for _, ap := range nw.APs {
			if s.listeners[ap.idx].empty() {
				continue // nobody ever listened to this AP: skip the sector trigonometry too
			}
			for c := first; c < len(corridors); c++ {
				items = append(items, mapItem{corr: int32(c), ap: int32(ap.idx)})
			}
		}
	}
	s.corridorScratch, s.mapItems = corridors, items
	s.growLanes(nw.Workers, len(items))
	for i := range s.lanes {
		s.lanes[i].cand = s.lanes[i].cand[:0]
	}
	if s.mapFn == nil {
		s.mapFn = func(lane, i int) { s.mapItem(nw, lane, i) }
	}
	par.For(nw.Workers, len(items), s.mapFn)
	staled := 0
	for _, it := range items {
		for _, n := range s.lanes[it.lane].cand[it.lo:it.hi] {
			if !n.sp.evalStale {
				s.markEvalStale(n)
				staled++
			}
		}
	}
	nw.work.MapItems += len(items)
	nw.work.Staled += staled
	s.foldLanes(nw)
}

// mapItem runs work item i on the given lane: it aims the lane's copy of
// the item's corridor at the item's AP, walks the cells its cones cover
// in the AP's listener box, gathers the nodes there with their
// positions, and puts each through the corridor test, which reads only
// the position, then the node's own flags (not already stale, listening
// to the AP), then the exact leaf test. A node that passes all three is
// appended to the lane's candidates.
func (s *sparseState) mapItem(nw *Network, lane, i int) {
	it := &s.mapItems[i]
	ln := &s.lanes[lane]
	ln.co, ln.env = s.corridorScratch[it.corr], nw.Env
	co := &ln.co
	co.aim(nw.Env.Room, nw.APs[it.ap])
	b := &s.listeners[it.ap]
	ln.cells = ln.cells[:0]
	if co.mayReach(b) {
		var gc cone
		co.gateCone(&gc, b)
		if gc.n > 0 && co.aimSectors(&gc) {
			ln.cells = s.appendConeCells(ln.cells, co, b, &gc)
		}
	}
	it.lane, it.lo = int32(lane), int32(len(ln.cand))
	// Gather first: the position loads are independent of each other, so
	// their cache misses overlap, where testing each node as it is loaded
	// waits out one miss at a time.
	ln.nodes, ln.pos = ln.nodes[:0], ln.pos[:0]
	for _, c := range ln.cells {
		for _, sl := range s.cells[c] {
			ln.nodes = append(ln.nodes, sl.n)
			ln.pos = append(ln.pos, sl.n.Pose.Pos)
		}
	}
	leaf := 0
	for i, p := range ln.pos {
		if !co.nearNode(p) {
			continue
		}
		n := ln.nodes[i]
		if n.sp.evalStale || !n.listens(co.ap) {
			continue
		}
		leaf++
		if co.flips(ln.env, p) {
			ln.cand = append(ln.cand, n)
		}
	}
	it.hi = int32(len(ln.cand))
	ln.work.CellsWalked += len(ln.cells)
	ln.work.SlotsVisited += len(ln.pos)
	ln.work.LeafTests += leaf
}

// listens reports whether node n caches a link towards AP j.
func (n *Node) listens(j int) bool {
	return n.AP.idx == j || (n.sp.cross != nil && n.sp.cross[j].live())
}

// box is an axis-aligned bounding box; emptyBox has lo > hi.
type box struct{ lo, hi channel.Vec2 }

func emptyBox() box {
	inf := math.Inf(1)
	return box{lo: channel.Vec2{X: inf, Y: inf}, hi: channel.Vec2{X: -inf, Y: -inf}}
}

func (b *box) empty() bool { return b.lo.X > b.hi.X }

// nearCapsule reports whether capsule k's bounding box, grown by its
// reach and a slack for rounding, meets b: false means no point of b
// comes within reach of k.
func (b *box) nearCapsule(k *channel.SweptRegion) bool {
	r := k.Radius + 2*sweptSlack
	a, c := k.Seg.A, k.Seg.B
	return min(a.X, c.X)-r <= b.hi.X && max(a.X, c.X)+r >= b.lo.X &&
		min(a.Y, c.Y)-r <= b.hi.Y && max(a.Y, c.Y)+r >= b.lo.Y
}

func (b *box) grow(p channel.Vec2) {
	b.lo = channel.Vec2{X: min(b.lo.X, p.X), Y: min(b.lo.Y, p.Y)}
	b.hi = channel.Vec2{X: max(b.hi.X, p.X), Y: max(b.hi.Y, p.Y)}
}

// gateSlack, in normalized crossing coordinates, keeps nearNode's gate
// test and leg clipping, and the cone walk's gate cuts, strict supersets
// of appendPaths' own validity margins (1e-9 in t and u) under
// independent float rounding.
const gateSlack = 1e-6

// maxCuts is the most half-planes a cone is cut by: its sector's two and
// three for each of a corridor's up to two gates.
const maxCuts = 2 + 3*2

// halfPlane is one cut of a cone: it keeps the points p with
// (p − o)·nrm ≥ −slack, for a unit normal nrm and a slack in meters.
type halfPlane struct {
	o, nrm channel.Vec2
	slack  float64
}

// coneEdge is one edge of a clipped cone, prepared for the row walk: its
// y-range, the x at each end and dx/dy, so a row slices it with one
// multiply per end rather than a division.
type coneEdge struct {
	y0, y1, x0, x1, dxdy float64
}

// cone is one capsule variant's share of a listener box: the box clipped
// by the variant's sector and the corridor's gate cuts, its edges and rows,
// and the distance from the apex below which no node's segment to the
// apex reaches the capsule. Each cut adds at most one vertex to a convex
// polygon, so the box's four and maxCuts more fit; a cut whose rounding
// would overflow that (signs can alternate along a degenerate polygon) is
// skipped, which only keeps more.
type cone struct {
	v        [4 + maxCuts]channel.Vec2
	e        [4 + maxCuts]coneEdge
	n        int
	near     float64
	iy0, iy1 int
}

// clip sets the cone to b cut by the half-planes.
func (cn *cone) clip(b *box, cuts []halfPlane) {
	cn.v[0], cn.v[1] = b.lo, channel.Vec2{X: b.hi.X, Y: b.lo.Y}
	cn.v[2], cn.v[3] = b.hi, channel.Vec2{X: b.lo.X, Y: b.hi.Y}
	cn.n = 4
	for i := 0; i < len(cuts) && cn.n > 0; i++ {
		cn.cut(&cuts[i])
	}
}

// clipSector cuts the cone by the sector's two boundary half-planes, each
// loosened by sweptSlack so that every point admitsPoint accepts stays
// inside under the cut's own rounding.
func (cn *cone) clipSector(apex channel.Vec2, sc *sector) {
	cuts := [2]halfPlane{{o: apex, nrm: sc.n1, slack: sweptSlack}, {o: apex, nrm: sc.n2, slack: sweptSlack}}
	for i := 0; i < len(cuts) && cn.n > 0; i++ {
		cn.cut(&cuts[i])
	}
}

// cut keeps the part of the polygon inside h (one Sutherland–Hodgman
// pass).
func (cn *cone) cut(h *halfPlane) {
	var out [len(cn.v)]channel.Vec2
	side := func(p channel.Vec2) float64 { return (p.X-h.o.X)*h.nrm.X + (p.Y-h.o.Y)*h.nrm.Y + h.slack }
	m := 0
	a := cn.v[cn.n-1]
	da := side(a)
	for i := 0; i < cn.n; i++ {
		b := cn.v[i]
		db := side(b)
		if (da >= 0) != (db >= 0) {
			if m == len(out) {
				return
			}
			t := da / (da - db)
			out[m] = channel.Vec2{X: a.X + t*(b.X-a.X), Y: a.Y + t*(b.Y-a.Y)}
			m++
		}
		if db >= 0 {
			if m == len(out) {
				return
			}
			out[m] = b
			m++
		}
		a, da = b, db
	}
	cn.v, cn.n = out, m
}

// edges prepares the cone's edges for xSpan and returns its y-range.
func (cn *cone) edges() (ylo, yhi float64) {
	ylo, yhi = math.Inf(1), math.Inf(-1)
	a := cn.v[cn.n-1]
	for i, b := range cn.v[:cn.n] {
		lo, hi := a, b
		if lo.Y > hi.Y {
			lo, hi = hi, lo
		}
		e := coneEdge{y0: lo.Y, y1: hi.Y, x0: lo.X, x1: hi.X}
		if dy := hi.Y - lo.Y; dy > 0 {
			e.dxdy = (hi.X - lo.X) / dy
		}
		cn.e[i] = e
		ylo, yhi = min(ylo, b.Y), max(yhi, b.Y)
		a = b
	}
	return ylo, yhi
}

// xSpan returns the x-extent of the cone's part inside the band
// y0 ≤ y ≤ y1 (ok false when it misses the band). A convex polygon's slice
// is bounded by its edges, so the extent is that of the edges' slices.
func (cn *cone) xSpan(y0, y1 float64) (xa, xb float64, ok bool) {
	xa, xb = math.Inf(1), math.Inf(-1)
	for i := range cn.e[:cn.n] {
		e := &cn.e[i]
		if e.y1 < y0 || e.y0 > y1 {
			continue
		}
		lo, hi := e.x0, e.x1
		if e.y0 < y0 {
			lo = e.x0 + (y0-e.y0)*e.dxdy
		}
		if e.y1 > y1 {
			hi = e.x0 + (y1-e.y0)*e.dxdy
		}
		// Plain comparisons: the vertices are finite, so the builtins'
		// NaN and signed-zero rules would only cost.
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo < xa {
			xa = lo
		}
		if hi > xb {
			xb = hi
		}
	}
	return xa, xb, xa <= xb
}

// cellExtent is the extent of cell i, on an axis of n cells of width w,
// within [lo, hi]; the end cells, which cellIndex clamps everything
// beyond the grid into, reach to lo and hi.
func cellExtent(i int, w float64, n int, lo, hi float64) (a, b float64) {
	a, b = max(float64(i)*w, lo), min(float64(i+1)*w, hi)
	if i == 0 {
		a = lo
	}
	if i == n-1 {
		b = hi
	}
	return a, b
}

// clampCell is the grid index of coordinate v on an axis of n cells of
// width w, clamped into the grid as cellIndex does. The clamp runs in
// float, as Go leaves a float-to-int conversion implementation-defined
// when the value does not fit; on [0, n−1] the conversion's truncation is
// the floor.
func clampCell(v, w float64, n int) int {
	return int(min(max(v/w, 0), float64(n-1)))
}

// gateCone sets gc to b clipped by the corridor's gate cuts: the part of
// b where a node's segment to the apex can cross every gate.
func (co *corridor) gateCone(gc *cone, b *box) {
	var buf [maxCuts - 2]halfPlane
	gc.clip(b, co.gateCuts(buf[:0], b))
}

// gateCuts fills dst with the half-planes that hold every point p of b
// whose segment to the apex crosses all of the corridor's gates as
// gateCross requires: for each gate, the side of its line away from the
// apex and the wedge from the apex through the gate's ends, each widened
// by twice gateSlack in crossing coordinates and by sweptSlack for
// rounding. That is sound because path existence is pure geometry: a node
// whose segment to the apex misses a gate has no path through the
// corridor, and the leaf test rejects it. A gate whose line passes too
// near the apex gets no cut, which only keeps more: near relative to the
// coordinates' scale, where crossing coordinates lose the accuracy the
// widening assumes, or relative to b's reach from the line, where a point
// of b could meet the line behind the apex (t > 1) within gateSlack.
func (co *corridor) gateCuts(dst []halfPlane, b *box) []halfPlane {
	const widen = 2 * gateSlack
	apex := co.apex
	corners := [4]channel.Vec2{b.lo, b.hi, {X: b.lo.X, Y: b.hi.Y}, {X: b.hi.X, Y: b.lo.Y}}
	scale := max(math.Abs(apex.X), math.Abs(apex.Y), math.Abs(b.lo.X), math.Abs(b.lo.Y), math.Abs(b.hi.X), math.Abs(b.hi.Y))
	for g := 0; g < co.nGates; g++ {
		gt := co.gates[g]
		q := gt.B.Sub(gt.A)
		sc := max(scale, math.Abs(gt.A.X), math.Abs(gt.A.Y), math.Abs(gt.B.X), math.Abs(gt.B.Y))
		// cross(p) is |q| times p's signed distance from the gate's line.
		cross := func(p channel.Vec2) float64 { return q.X*(p.Y-gt.A.Y) - q.Y*(p.X-gt.A.X) }
		ca := math.Abs(cross(apex))
		reach := 0.0
		for _, p := range corners {
			reach = max(reach, math.Abs(cross(p)))
		}
		if !(ca > 1e-7*sc*sc && ca > 4*gateSlack*reach) {
			continue
		}
		l := math.Sqrt(q.X*q.X + q.Y*q.Y)
		sgn := 1.0
		if cross(apex) < 0 {
			sgn = -1
		}
		// Beyond the line: a crossing at t ≥ −gateSlack leaves p at most
		// gateSlack·ca/l on the apex's side.
		dst = append(dst, halfPlane{
			o:     gt.A,
			nrm:   channel.Vec2{X: sgn * q.Y / l, Y: -sgn * q.X / l},
			slack: widen*ca/l + sweptSlack,
		})
		// The wedge: rays from the apex through the gate's ends, each end
		// moved out along the gate by widen.
		ea := channel.Vec2{X: gt.A.X - widen*q.X - apex.X, Y: gt.A.Y - widen*q.Y - apex.Y}
		eb := channel.Vec2{X: gt.B.X + widen*q.X - apex.X, Y: gt.B.Y + widen*q.Y - apex.Y}
		sgn = 1
		if ea.X*eb.Y-ea.Y*eb.X < 0 {
			sgn = -1
		}
		la, lb := math.Sqrt(ea.X*ea.X+ea.Y*ea.Y), math.Sqrt(eb.X*eb.X+eb.Y*eb.Y)
		dst = append(dst,
			halfPlane{o: apex, nrm: channel.Vec2{X: -sgn * ea.Y / la, Y: sgn * ea.X / la}, slack: sweptSlack},
			halfPlane{o: apex, nrm: channel.Vec2{X: sgn * eb.Y / lb, Y: -sgn * eb.X / lb}, slack: sweptSlack})
	}
	return dst
}

// appendConeCells appends, in row-major order and each once, the grid
// cells that can hold a node inside b whose segment to the corridor's
// apex crosses its gates and reaches one of its capsules: for capsule
// variant c, the cells that meet gc (b clipped by the gate cuts, see
// gateCone) clipped by sector c and are not wholly nearer to the apex
// than dist(apex, capsule c) − reach. Rows and x-extents are padded by
// sweptSlack, and the end rows and columns reach to ±∞, so every node
// position the cones hold maps into a listed cell. b must not be empty.
func (s *sparseState) appendConeCells(dst []int32, co *corridor, b *box, gc *cone) []int32 {
	var cones [3]cone
	rows0, rows1 := s.ny, -1
	for c := 0; c < co.nCaps; c++ {
		cn := &cones[c]
		cn.v, cn.n = gc.v, gc.n
		if sc := &co.secs[c]; sc.none {
			cn.n = 0
		} else if !sc.all {
			cn.clipSector(co.apex, sc)
		}
		if cn.n == 0 {
			cn.iy0, cn.iy1 = s.ny, -1
			continue
		}
		k := &co.caps[c]
		cn.near = k.Seg.DistanceTo(co.apex) - k.Radius - 2*sweptSlack // one slack for reach, one for rounding
		ylo, yhi := cn.edges()
		cn.iy0, cn.iy1 = clampCell(ylo-sweptSlack, s.cellH, s.ny), clampCell(yhi+sweptSlack, s.cellH, s.ny)
		rows0, rows1 = min(rows0, cn.iy0), max(rows1, cn.iy1)
	}
	apex := co.apex
	inf := math.Inf(1)
	for iy := rows0; iy <= rows1; iy++ {
		y0, y1 := cellExtent(iy, s.cellH, s.ny, -inf, inf)
		// fy is the squared y-distance from the apex to the farther
		// edge of the row's part of b.
		cy0, cy1 := cellExtent(iy, s.cellH, s.ny, b.lo.Y, b.hi.Y)
		fy := max((cy0-apex.Y)*(cy0-apex.Y), (cy1-apex.Y)*(cy1-apex.Y))
		// Cone c lists columns lo[c]..hi[c] of the row but for ex0[c]..ex1[c],
		// the inner cells lying wholly within (apex.X ∓ r), r² = near² − fy:
		// no point there is near enough to the capsule's reach.
		var lo, hi, ex0, ex1 [3]int
		cols0, cols1 := s.nx, -1
		for c := 0; c < co.nCaps; c++ {
			cn := &cones[c]
			lo[c], hi[c], ex0[c], ex1[c] = 0, -1, 0, -1
			if iy < cn.iy0 || iy > cn.iy1 {
				continue
			}
			xa, xb, ok := cn.xSpan(y0-sweptSlack, y1+sweptSlack)
			if !ok {
				continue
			}
			lo[c], hi[c] = clampCell(xa-sweptSlack, s.cellW, s.nx), clampCell(xb+sweptSlack, s.cellW, s.nx)
			cols0, cols1 = min(cols0, lo[c]), max(cols1, hi[c])
			if r2 := cn.near*cn.near - fy; cn.near > 0 && r2 > 0 {
				r := math.Sqrt(r2) - sweptSlack // a slack for rounding: exclude less
				ex0[c] = max(clampCell(apex.X-r, s.cellW, s.nx)+1, 1)
				ex1[c] = min(clampCell(apex.X+r, s.cellW, s.nx)-1, s.nx-2)
			}
		}
		for ix := cols0; ix <= cols1; ix++ {
			for c := 0; c < co.nCaps; c++ {
				if lo[c] <= ix && ix <= hi[c] && (ix < ex0[c] || ix > ex1[c]) {
					dst = append(dst, int32(iy*s.nx+ix))
					break
				}
			}
		}
	}
	return dst
}

// segsWithin reports whether segments s and o come within √r2 of each
// other: 0 when they cross, otherwise the closest pair involves an
// endpoint, so the minimum over the four endpoint-to-segment distances —
// compared on squared distances, so the per-node test pays no square
// root. Against Segment.DistanceTo's square-rooted form it differs
// only within a few ulps of the boundary, which sweptSlack covers a
// million times over.
func segsWithin(s, o channel.Segment, r2 float64) bool {
	if t, u, ok := s.Intersect(o); ok && t >= 0 && t <= 1 && u >= 0 && u <= 1 {
		return true
	}
	return pointSegDist2(s, o.A) <= r2 || pointSegDist2(s, o.B) <= r2 ||
		pointSegDist2(o, s.A) <= r2 || pointSegDist2(o, s.B) <= r2
}

// pointSegDist2 is the squared distance from p to segment s, following
// Segment.DistanceTo's arithmetic up to the final square root.
func pointSegDist2(s channel.Segment, p channel.Vec2) float64 {
	d := s.B.Sub(s.A)
	q := s.A
	if l2 := d.Dot(d); l2 != 0 {
		t := p.Sub(s.A).Dot(d) / l2
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		q = s.PointAt(t)
	}
	e := q.Sub(p)
	return e.Dot(e)
}

// gateCross is nearNode's gate test: t is where seg meets the gate's
// line, along seg; ok is false where Intersect refuses near-parallel
// geometry, which nearNode admits unclipped rather than skips; miss
// reports a crossing off the segment or the gate by more than gateSlack.
func gateCross(seg, gate channel.Segment) (t float64, ok, miss bool) {
	t, u, ok := seg.Intersect(gate)
	return t, ok, ok && (t < -gateSlack || t > 1+gateSlack || u < -gateSlack || u > 1+gateSlack)
}

// nearNode is the per-node corridor test applied inside the walked
// cells, the prefilter of the exact leaf test: is segment(p, apex) within
// reach of any capsule variant? Every unfolded leg image is a subsegment
// of that segment, so the test is a conservative superset per leg, while
// far tighter than the cells when they are coarse (kilometer-scale fields
// quantize a meters-wide corridor to cell-wide strips otherwise). The
// sectors, a few multiplies, go first; the gate crossings, each a
// division, only for a point some sector admits.
func (co *corridor) nearNode(p channel.Vec2) bool {
	var in [3]bool
	some := false
	for c := 0; c < co.nCaps; c++ {
		in[c] = co.secs[c].admitsPoint(co.apex, p)
		some = some || in[c]
	}
	if !some {
		return false
	}
	seg := channel.Segment{A: p, B: co.apex}
	// cut[c]..cut[c+1] bounds the sub-span of the unfolded segment
	// occupied by leg c's image: consecutive leg images meet exactly at
	// the gate crossings (node → w1 → M₁(w2) → apex), so each capsule
	// variant only needs testing against its own leg's span, not the
	// whole segment.
	cut := [4]float64{0, 1, 1, 1}
	clip := co.nGates > 0
	for g := 0; g < co.nGates; g++ {
		t, ok, miss := gateCross(seg, co.gates[g])
		if miss {
			return false
		}
		if !ok {
			clip = false
			continue
		}
		cut[g+1] = t
	}
	cut[co.nCaps] = 1
	if clip && co.nGates == 2 && cut[2] < cut[1] {
		clip = false // crossings out of order: no clean leg partition, stay conservative
	}
	d := seg.B.Sub(seg.A)
	for c := 0; c < co.nCaps; c++ {
		if !in[c] {
			continue
		}
		leg := seg
		if clip {
			lo := max(0, cut[c]-gateSlack)
			hi := min(1, cut[c+1]+gateSlack)
			leg = channel.Segment{
				A: channel.Vec2{X: seg.A.X + lo*d.X, Y: seg.A.Y + lo*d.Y},
				B: channel.Vec2{X: seg.A.X + hi*d.X, Y: seg.A.Y + hi*d.Y},
			}
		}
		k := &co.caps[c]
		reach := k.Radius + sweptSlack
		if segsWithin(k.Seg, leg, reach*reach) {
			return true
		}
	}
	return false
}
