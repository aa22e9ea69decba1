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
	lo := math.Min(-pha, delta-phb)
	hi := math.Max(pha, delta+phb)
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
	if sc.all {
		return true
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
// the corridor's walls, and the sectors are the capsule variants seen
// from there.
func (co *corridor) aim(room *channel.Room, ap *AccessPoint) {
	apex := ap.Pose.Pos
	for g := co.nGates - 1; g >= 0; g-- {
		apex = room.Wall(co.walls[g]).Seg.MirrorAcross(apex)
	}
	co.apex, co.apPos, co.ap = apex, ap.Pose.Pos, ap.idx
	for c := 0; c < co.nCaps; c++ {
		co.secs[c] = makeSector(apex, co.caps[c])
	}
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
// tick's list aimed at AP ap. Its walk visited cells grid cells and left
// its candidates in mapLanes[lane].cand[lo:hi].
type mapItem struct {
	corr, ap     int32
	lane, lo, hi int32
	cells        int32
}

// mapLane is one worker's scratch: the corridor it is walking, aimed at
// the current item's AP, the environment its leaf test traces in, the
// current item's cells, and the candidates of every item it ran.
type mapLane struct {
	co    corridor
	env   *channel.Environment
	cells []int32
	cand  []*Node
}

// mapRegions marks evalStale every node whose cached evaluations one of
// the swept regions changed — the region-scoped replacement for
// the stale-everything epoch response. A node caches exactly the links
// it listens on: the one towards its serving AP (sp.eval, sp.power) and,
// while it has victims served at AP j (outPerAP[j] > 0), its power there
// (sp.xpower[j]). A corridor towards AP j therefore only needs to reach
// the nodes listening to j; an xpower[j] left to go stale while
// unreferenced is recomputed before anyone reads it, because addEdge
// forces an evaluation on the 0→1 transition of outPerAP[j].
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
	if lanes := par.Lanes(nw.Workers, len(items)); len(s.mapLanes) < lanes {
		s.mapLanes = append(s.mapLanes, make([]mapLane, lanes-len(s.mapLanes))...)
	}
	for i := range s.mapLanes {
		s.mapLanes[i].cand = s.mapLanes[i].cand[:0]
	}
	if s.mapFn == nil {
		s.mapFn = func(lane, i int) { s.mapItem(nw, lane, i) }
	}
	par.For(nw.Workers, len(items), s.mapFn)
	for _, it := range items {
		for _, n := range s.mapLanes[it.lane].cand[it.lo:it.hi] {
			if !n.sp.evalStale {
				s.markEvalStale(n)
			}
		}
	}
}

// mapItem runs work item i on the given lane: it aims the lane's copy of
// the item's corridor at the item's AP, walks the cells its cones cover
// in the AP's listener box, and puts each listening node there through
// the corridor test and then the exact leaf test. A node that passes
// both, and was not already stale, is appended to the lane's candidates.
func (s *sparseState) mapItem(nw *Network, lane, i int) {
	it := &s.mapItems[i]
	ln := &s.mapLanes[lane]
	ln.co, ln.env = s.corridorScratch[it.corr], nw.Env
	co := &ln.co
	co.aim(nw.Env.Room, nw.APs[it.ap])
	ln.cells = s.appendConeCells(ln.cells[:0], co, &s.listeners[it.ap])
	it.lane, it.lo, it.cells = int32(lane), int32(len(ln.cand)), int32(len(ln.cells))
	for _, c := range ln.cells {
		for _, n := range s.cells[c] {
			if !n.sp.evalStale && n.listens(co.ap) && co.nearNode(n.Pose.Pos) && co.flips(ln.env, n.Pose.Pos) {
				ln.cand = append(ln.cand, n)
			}
		}
	}
	it.hi = int32(len(ln.cand))
}

// listens reports whether node n caches a link towards AP j.
func (n *Node) listens(j int) bool {
	return n.AP.idx == j || (n.sp.outPerAP != nil && n.sp.outPerAP[j] > 0)
}

// box is an axis-aligned bounding box; emptyBox has lo > hi.
type box struct{ lo, hi channel.Vec2 }

func emptyBox() box {
	inf := math.Inf(1)
	return box{lo: channel.Vec2{X: inf, Y: inf}, hi: channel.Vec2{X: -inf, Y: -inf}}
}

func (b *box) empty() bool { return b.lo.X > b.hi.X }

func (b *box) grow(p channel.Vec2) {
	b.lo = channel.Vec2{X: math.Min(b.lo.X, p.X), Y: math.Min(b.lo.Y, p.Y)}
	b.hi = channel.Vec2{X: math.Max(b.hi.X, p.X), Y: math.Max(b.hi.Y, p.Y)}
}

// cone is one capsule variant's share of a listener box: the box clipped
// by the variant's sector, its rows, and the distance from the apex below
// which no node's segment to the apex reaches the capsule. Each cut adds
// one vertex to a convex polygon, so a box needs 6; rounding on a
// zero-width box can alternate the signs and make it 9.
type cone struct {
	v        [10]channel.Vec2
	n        int
	near     float64
	iy0, iy1 int
}

// clip sets the cone to b cut by the sector's two boundary half-planes,
// each loosened by sweptSlack so that every point admitsPoint accepts
// stays inside under the clip's own rounding.
func (cn *cone) clip(b *box, apex channel.Vec2, sc *sector) {
	cn.v[0], cn.v[1] = b.lo, channel.Vec2{X: b.hi.X, Y: b.lo.Y}
	cn.v[2], cn.v[3] = b.hi, channel.Vec2{X: b.lo.X, Y: b.hi.Y}
	cn.n = 4
	if !sc.all {
		cn.cut(apex, sc.n1)
		cn.cut(apex, sc.n2)
	}
}

// cut keeps the part of the polygon where (p − apex) · nrm ≥ −sweptSlack
// (one Sutherland–Hodgman pass).
func (cn *cone) cut(apex, nrm channel.Vec2) {
	var out [10]channel.Vec2
	m := 0
	side := func(p channel.Vec2) float64 { return (p.X-apex.X)*nrm.X + (p.Y-apex.Y)*nrm.Y + sweptSlack }
	for i := 0; i < cn.n; i++ {
		a, b := cn.v[i], cn.v[(i+1)%cn.n]
		da, db := side(a), side(b)
		if da >= 0 {
			out[m] = a
			m++
		}
		if (da >= 0) != (db >= 0) {
			t := da / (da - db)
			out[m] = channel.Vec2{X: a.X + t*(b.X-a.X), Y: a.Y + t*(b.Y-a.Y)}
			m++
		}
	}
	cn.v, cn.n = out, m
}

// xSpan returns the x-extent of the cone's part inside the band
// y0 ≤ y ≤ y1 (ok false when it misses the band). A convex polygon's slice
// is bounded by its edges, so the extent is that of the edges' slices.
func (cn *cone) xSpan(y0, y1 float64) (xa, xb float64, ok bool) {
	xa, xb = math.Inf(1), math.Inf(-1)
	for i := 0; i < cn.n; i++ {
		a, b := cn.v[i], cn.v[(i+1)%cn.n]
		if a.Y > b.Y {
			a, b = b, a
		}
		if b.Y < y0 || a.Y > y1 {
			continue
		}
		lo, hi := a.X, b.X
		if a.Y < y0 {
			lo = a.X + (y0-a.Y)*(b.X-a.X)/(b.Y-a.Y)
		}
		if b.Y > y1 {
			hi = a.X + (y1-a.Y)*(b.X-a.X)/(b.Y-a.Y)
		}
		xa, xb = math.Min(xa, math.Min(lo, hi)), math.Max(xb, math.Max(lo, hi))
	}
	return xa, xb, xa <= xb
}

// cellExtent is the extent of cell i, on an axis of n cells of width w,
// within [lo, hi]; the end cells, which cellIndex clamps everything
// beyond the grid into, reach to lo and hi.
func cellExtent(i int, w float64, n int, lo, hi float64) (a, b float64) {
	a, b = math.Max(float64(i)*w, lo), math.Min(float64(i+1)*w, hi)
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
// float: Go leaves a float-to-int conversion implementation-defined when
// the value does not fit.
func clampCell(v, w float64, n int) int {
	return int(math.Min(math.Max(math.Floor(v/w), 0), float64(n-1)))
}

// appendConeCells appends, in row-major order and each once, the grid
// cells that can hold a node inside b whose segment to the corridor's
// apex reaches one of its capsules: for capsule variant c, the cells that
// meet b clipped by sector c and are not wholly nearer to the apex than
// dist(apex, capsule c) − reach. Rows and x-extents are padded by
// sweptSlack, and the end rows and columns reach to ±∞, so every node
// position the cones hold maps into a listed cell. b must not be empty.
func (s *sparseState) appendConeCells(dst []int32, co *corridor, b *box) []int32 {
	var cones [3]cone
	rows0, rows1 := s.ny, -1
	for c := 0; c < co.nCaps; c++ {
		cn := &cones[c]
		cn.clip(b, co.apex, &co.secs[c])
		if cn.n == 0 {
			cn.iy0, cn.iy1 = s.ny, -1
			continue
		}
		k := &co.caps[c]
		cn.near = k.Seg.DistanceTo(co.apex) - k.Radius - 2*sweptSlack // one slack for reach, one for rounding
		ylo, yhi := math.Inf(1), math.Inf(-1)
		for _, v := range cn.v[:cn.n] {
			ylo, yhi = math.Min(ylo, v.Y), math.Max(yhi, v.Y)
		}
		cn.iy0, cn.iy1 = clampCell(ylo-sweptSlack, s.cellH, s.ny), clampCell(yhi+sweptSlack, s.cellH, s.ny)
		rows0, rows1 = min(rows0, cn.iy0), max(rows1, cn.iy1)
	}
	apex := co.apex
	inf := math.Inf(1)
	for iy := rows0; iy <= rows1; iy++ {
		y0, y1 := cellExtent(iy, s.cellH, s.ny, -inf, inf)
		var lo, hi [3]int
		cols0, cols1 := s.nx, -1
		for c := 0; c < co.nCaps; c++ {
			cn := &cones[c]
			lo[c], hi[c] = 0, -1
			if iy < cn.iy0 || iy > cn.iy1 {
				continue
			}
			if xa, xb, ok := cn.xSpan(y0-sweptSlack, y1+sweptSlack); ok {
				lo[c], hi[c] = clampCell(xa-sweptSlack, s.cellW, s.nx), clampCell(xb+sweptSlack, s.cellW, s.nx)
				cols0, cols1 = min(cols0, lo[c]), max(cols1, hi[c])
			}
		}
		// far2 is the squared distance from the apex to the farthest
		// point of the cell's part of b.
		cy0, cy1 := cellExtent(iy, s.cellH, s.ny, b.lo.Y, b.hi.Y)
		fy := math.Max((cy0-apex.Y)*(cy0-apex.Y), (cy1-apex.Y)*(cy1-apex.Y))
		for ix := cols0; ix <= cols1; ix++ {
			cx0, cx1 := cellExtent(ix, s.cellW, s.nx, b.lo.X, b.hi.X)
			far2 := fy + math.Max((cx0-apex.X)*(cx0-apex.X), (cx1-apex.X)*(cx1-apex.X))
			for c := 0; c < co.nCaps; c++ {
				if lo[c] <= ix && ix <= hi[c] && (cones[c].near <= 0 || far2 >= cones[c].near*cones[c].near) {
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

// nearNode is the per-node corridor test applied inside the walked
// cells, the prefilter of the exact leaf test: is segment(p, apex) within
// reach of any capsule variant? Every unfolded leg image is a subsegment
// of that segment, so the test is a conservative superset per leg, while
// far tighter than the cells when they are coarse (kilometer-scale fields
// quantize a meters-wide corridor to cell-wide strips otherwise).
func (co *corridor) nearNode(p channel.Vec2) bool {
	seg := channel.Segment{A: p, B: co.apex}
	// gateSlack (in normalized crossing coordinates) keeps the gate test
	// and the leg clipping below strict supersets of appendPaths' own
	// validity margins (1e-9 in t and u) under independent float
	// rounding. Near-parallel geometry, where Intersect refuses to
	// answer, is admitted unclipped rather than skipped.
	const gateSlack = 1e-6
	// cut[c]..cut[c+1] bounds the sub-span of the unfolded segment
	// occupied by leg c's image: consecutive leg images meet exactly at
	// the gate crossings (node → w1 → M₁(w2) → apex), so each capsule
	// variant only needs testing against its own leg's span, not the
	// whole segment.
	cut := [4]float64{0, 1, 1, 1}
	clip := co.nGates > 0
	for g := 0; g < co.nGates; g++ {
		t, u, ok := seg.Intersect(co.gates[g])
		if !ok {
			clip = false
			continue
		}
		if t < -gateSlack || t > 1+gateSlack || u < -gateSlack || u > 1+gateSlack {
			return false
		}
		cut[g+1] = t
	}
	cut[co.nCaps] = 1
	if clip && co.nGates == 2 && cut[2] < cut[1] {
		clip = false // crossings out of order: no clean leg partition, stay conservative
	}
	d := seg.B.Sub(seg.A)
	for c := 0; c < co.nCaps; c++ {
		if !co.secs[c].admitsPoint(co.apex, p) {
			continue
		}
		leg := seg
		if clip {
			lo := math.Max(0, cut[c]-gateSlack)
			hi := math.Min(1, cut[c+1]+gateSlack)
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
