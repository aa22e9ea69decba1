package simnet

import (
	"math"
	"math/bits"

	"mmx/internal/channel"
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
// The grid turns the per-node test into a per-cell one: for every node
// position p in a rectangle, segment(p, apex) lies inside the convex
// fan hull(rect ∪ {apex}), whose boundary is its silhouette: the rect
// edges facing away from the apex and the two apex→corner spokes that
// graze the rect. A capsule within reach of the fan either comes within
// reach of one of those segments or lies entirely inside the fan
// (capsule start inside the hull). Both tests are exact segment
// arithmetic, so a quadtree-style descent over the grid prunes whole
// subrectangles the corridor provably cannot touch and visits
// O(affected cells) instead of all 16384 per corridor. A corridor leads
// to one AP, so the descent also leaves every rectangle that holds no
// node caching a link towards that AP (the listen masks below): mapping
// costs what the APs a region's neighbourhood listens to cost, not what
// the AP count does. The descents of one tick are independent of each
// other, so mapRegions runs them on the worker pool. A node in a
// surviving leaf cell meets the corridor test (nearNode), a few dot
// products, first, and only then the exact leaf test, which solves the
// path's reflection points.

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
// (the cheap prune the quadtree descent tries before exact segment
// arithmetic). Everything but apex, apPos, ap and secs is a property of
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
// tangent cones, so the bounding angular interval is exact, and a
// rectangle wholly outside either boundary half-plane provably holds no
// affected node — two dot products per corner instead of eight exact
// segment-distance tests.
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

// admitsRect reports whether the rectangle can intersect the sector; a
// convex rect with all corners outside one boundary half-plane cannot.
func (sc *sector) admitsRect(apex channel.Vec2, corners *[4]channel.Vec2) bool {
	if sc.all {
		return true
	}
	out1, out2 := true, true
	for i := 0; i < 4; i++ {
		rx := corners[i].X - apex.X
		ry := corners[i].Y - apex.Y
		if rx*sc.n1.X+ry*sc.n1.Y >= 0 {
			out1 = false
		}
		if rx*sc.n2.X+ry*sc.n2.Y >= 0 {
			out2 = false
		}
	}
	return !out1 && !out2
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
// tick's list aimed at AP ap. The descent leaves its candidates in
// mapLanes[lane].cand[lo:hi].
type mapItem struct {
	corr, ap     int32
	lane, lo, hi int32
}

// mapLane is one worker's scratch: the corridor it is descending, aimed
// at the current item's AP, the environment its leaf test traces in, and
// the candidates of every item it ran.
type mapLane struct {
	co   corridor
	env  *channel.Environment
	cand []*Node
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
// out over the worker pool. A descent only collects candidates, so
// during the fan-out nothing writes node state and every read of
// evalStale and the listen masks is race-free. The serial merge then
// marks the candidates item by item in the order a single loop over
// regions, APs and corridors visits them, which keeps s.dirty's order
// independent of Workers.
func (s *sparseState) mapRegions(nw *Network, regions []channel.SweptRegion) {
	s.buildListenMasks()
	corridors, items := s.corridorScratch[:0], s.mapItems[:0]
	for _, k := range regions {
		first := len(corridors)
		corridors = appendCorridors(nw.Env, corridors, k)
		for _, ap := range nw.APs {
			if !s.rectListens(0, ap.idx) {
				continue // nobody listens to this AP: skip the sector trigonometry too
			}
			for c := first; c < len(corridors); c++ {
				items = append(items, mapItem{corr: int32(c), ap: int32(ap.idx)})
			}
		}
	}
	s.corridorScratch, s.mapItems = corridors, items
	if lanes := nw.lanes(len(items)); len(s.mapLanes) < lanes {
		s.mapLanes = append(s.mapLanes, make([]mapLane, lanes-len(s.mapLanes))...)
	}
	for i := range s.mapLanes {
		s.mapLanes[i].cand = s.mapLanes[i].cand[:0]
	}
	if s.mapFn == nil {
		s.mapFn = func(lane, i int) { s.mapItem(nw, lane, i) }
	}
	nw.forEachNode(len(items), s.mapFn)
	for _, it := range items {
		for _, n := range s.mapLanes[it.lane].cand[it.lo:it.hi] {
			if !n.sp.evalStale {
				s.markEvalStale(n)
			}
		}
	}
}

// mapItem runs work item i on the given lane: it aims the lane's copy of
// the item's corridor at the item's AP and descends the grid with it.
func (s *sparseState) mapItem(nw *Network, lane, i int) {
	it := &s.mapItems[i]
	ln := &s.mapLanes[lane]
	ln.co, ln.env = s.corridorScratch[it.corr], nw.Env
	ln.co.aim(nw.Env.Room, nw.APs[it.ap])
	it.lane, it.lo = int32(lane), int32(len(ln.cand))
	s.descend(ln, 0, cellRect{0, 0, s.nx, s.ny})
	it.hi = int32(len(ln.cand))
}

// The listen masks are one AP bitmask (listenWords words) per rectangle
// of descend's binary split, laid out as an implicit tree: slot 0 is the
// whole grid and the halves of slot i are slots 2i+1 and 2i+2. A
// rectangle's mask is the union of its nodes' listen sets, so a corridor
// towards AP j leaves a rectangle whose mask lacks bit j without a
// single geometric test — with one AP that is the empty-rectangle prune.
// Listen sets change with every membership, roam and edge event, so the
// tree is not maintained: mapRegions rebuilds it from the cells, one
// O(cells + nodes) pass per environment tick that has regions to map,
// and nothing can change a listen set between that pass and the descents
// that read it.

// listens reports whether node n caches a link towards AP j.
func (n *Node) listens(j int) bool {
	return n.AP.idx == j || (n.sp.outPerAP != nil && n.sp.outPerAP[j] > 0)
}

func (s *sparseState) rectListens(slot, ap int) bool {
	return s.listen[slot*s.listenWords+ap>>6]&(1<<(ap&63)) != 0
}

// cellRect is the cell-index rectangle [x, x+w) × [y, y+h).
type cellRect struct{ x, y, w, h int }

func (r cellRect) leaf() bool { return r.w == 1 && r.h == 1 }

// halves splits the rectangle across its longer side, the first half
// rounded down — the one binary split descend and the listen masks share.
func (r cellRect) halves() (a, b cellRect) {
	if r.w >= r.h {
		return cellRect{r.x, r.y, r.w / 2, r.h}, cellRect{r.x + r.w/2, r.y, r.w - r.w/2, r.h}
	}
	return cellRect{r.x, r.y, r.w, r.h / 2}, cellRect{r.x, r.y + r.h/2, r.w, r.h - r.h/2}
}

func (s *sparseState) buildListenMasks() {
	if s.listen == nil {
		// Allocated at the first region mapping, so a network no blocker
		// ever moves in does not carry the tree. Halving a side of n cells
		// reaches 1 after ⌈log₂ n⌉ splits, which bounds the tree's depth.
		depth := bits.Len(uint(s.nx-1)) + bits.Len(uint(s.ny-1))
		s.listenWords = (s.nAPs + 63) / 64
		s.listen = make([]uint64, (2<<depth-1)*s.listenWords)
	}
	s.maskRect(0, cellRect{0, 0, s.nx, s.ny})
}

// maskRect fills the mask of tree slot `slot`, which covers r, after
// filling everything below it.
func (s *sparseState) maskRect(slot int, r cellRect) {
	m := s.listen[slot*s.listenWords : (slot+1)*s.listenWords]
	clear(m)
	if r.leaf() {
		for _, n := range s.cells[r.y*s.nx+r.x] {
			a := n.AP.idx
			m[a>>6] |= 1 << (a & 63)
			for j, cnt := range n.sp.outPerAP {
				if cnt > 0 {
					m[j>>6] |= 1 << (j & 63)
				}
			}
		}
		return
	}
	a, b := r.halves()
	s.maskRect(2*slot+1, a)
	s.maskRect(2*slot+2, b)
	for i := range m {
		m[i] = s.listen[(2*slot+1)*s.listenWords+i] | s.listen[(2*slot+2)*s.listenWords+i]
	}
}

// descend walks the grid quadtree-style over the cell rectangle r — tree
// slot `slot` of the listen masks — with the lane's corridor, leaving
// rectangles nobody listens to the corridor's AP from, pruning
// subrectangles the corridor cannot reach, and putting each listening
// node in surviving leaf cells through the corridor test and then the
// exact leaf test. A node that passes both, and was not already stale,
// is appended to the lane's candidates; descend writes no node state.
func (s *sparseState) descend(ln *mapLane, slot int, r cellRect) {
	co := &ln.co
	if !s.rectListens(slot, co.ap) {
		return
	}
	x0 := float64(r.x) * s.cellW
	y0 := float64(r.y) * s.cellH
	x1 := float64(r.x+r.w) * s.cellW
	y1 := float64(r.y+r.h) * s.cellH
	// Boundary cells also hold any node cellIndex clamped in from
	// outside the room, so their rectangles extend to the all-time node
	// bounding box. (Extending to ±∞ would be sound too, but then every
	// far apex's fan contains every capsule through the giant boundary
	// rects and the descent degenerates into a full boundary-ring walk.)
	if r.x == 0 {
		x0 = math.Min(x0, s.bbMin.X)
	}
	if r.x+r.w == s.nx {
		x1 = math.Max(x1, s.bbMax.X)
	}
	if r.y == 0 {
		y0 = math.Min(y0, s.bbMin.Y)
	}
	if r.y+r.h == s.ny {
		y1 = math.Max(y1, s.bbMax.Y)
	}
	if !co.nearRect(x0, y0, x1, y1) {
		return
	}
	if r.leaf() {
		for _, n := range s.cells[r.y*s.nx+r.x] {
			if !n.sp.evalStale && n.listens(co.ap) && co.nearNode(n.Pose.Pos) && co.flips(ln.env, n.Pose.Pos) {
				ln.cand = append(ln.cand, n)
			}
		}
		return
	}
	a, b := r.halves()
	s.descend(ln, 2*slot+1, a)
	s.descend(ln, 2*slot+2, b)
}

// segsWithin reports whether segments s and o come within √r2 of each
// other: 0 when they cross, otherwise the closest pair involves an
// endpoint, so the minimum over the four endpoint-to-segment distances —
// compared on squared distances, so the descent's innermost test pays no
// square root. Against Segment.DistanceTo's square-rooted form it differs
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

// nearNode is the per-node corridor test applied inside surviving leaf
// cells, the prefilter of the exact leaf test: is segment(p, apex) within
// reach of any capsule variant? Every unfolded leg image is a subsegment
// of that segment, so the test is a conservative superset per leg, while
// far tighter than the cell-level fan test when the grid cells are coarse
// (kilometer-scale fields quantize a meters-wide corridor to cell-wide
// strips otherwise).
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

// nearRect reports whether any node position p inside the rectangle can
// have segment(p, apex) within reach of one of the corridor's capsules.
// The fan of those segments is hull(rect ∪ {apex}); a capsule within
// reach of it is within reach of the hull boundary (its silhouette)
// unless it starts inside the hull, caught by fanContains. The facing
// edges and the other spokes lie inside the hull, and a capsule outside
// a convex set is no nearer to its interior than to its boundary, so
// testing them too would never change the answer.
func (co *corridor) nearRect(x0, y0, x1, y1 float64) bool {
	corners := [4]channel.Vec2{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
	var bound [5]channel.Segment
	nb := silhouette(co.apex, &corners, &bound)
	for c := 0; c < co.nCaps; c++ {
		if !co.secs[c].admitsRect(co.apex, &corners) {
			continue
		}
		k := &co.caps[c]
		reach := k.Radius + sweptSlack
		r2 := reach * reach
		for _, seg := range bound[:nb] {
			if segsWithin(k.Seg, seg, r2) {
				return true
			}
		}
		if fanContains(co.apex, x0, y0, x1, y1, k.Seg.A) {
			return true
		}
	}
	return false
}

// silhouette fills bound with the boundary of hull(rect ∪ {a}), the rect
// given by its corners counter-clockwise from the lower left, and returns
// how many segments that takes: at most three edges and two spokes. Edge
// i runs from corners[i] to corners[i+1] (bottom, right, top, left) and
// faces a when a lies strictly beyond it. At most two adjacent edges
// face it, and the chain of them starts and ends at the corners the
// spokes graze.
func silhouette(a channel.Vec2, corners *[4]channel.Vec2, bound *[5]channel.Segment) int {
	faces := [4]bool{a.Y < corners[0].Y, a.X > corners[2].X, a.Y > corners[2].Y, a.X < corners[0].X}
	n := 0
	for i := 0; i < 4; i++ {
		next := corners[(i+1)%4]
		if !faces[i] {
			bound[n] = channel.Segment{A: corners[i], B: next}
			n++
			continue
		}
		if !faces[(i+3)%4] {
			bound[n] = channel.Segment{A: a, B: corners[i]}
			n++
		}
		if !faces[(i+1)%4] {
			bound[n] = channel.Segment{A: a, B: next}
			n++
		}
	}
	return n
}

// fanContains reports whether p lies inside hull(rect ∪ {apex}): either
// inside the rectangle, or on a segment from the apex to some rectangle
// point — i.e. the ray apex→p, extended at or past p, enters the
// rectangle (a slab test over t ≥ 1).
func fanContains(apex channel.Vec2, x0, y0, x1, y1 float64, p channel.Vec2) bool {
	if p.X >= x0 && p.X <= x1 && p.Y >= y0 && p.Y <= y1 {
		return true
	}
	d := p.Sub(apex)
	tmin, tmax := 1.0, math.Inf(1)
	if d.X == 0 {
		if apex.X < x0 || apex.X > x1 {
			return false
		}
	} else {
		ta := (x0 - apex.X) / d.X
		tb := (x1 - apex.X) / d.X
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > tmin {
			tmin = ta
		}
		if tb < tmax {
			tmax = tb
		}
	}
	if d.Y == 0 {
		if apex.Y < y0 || apex.Y > y1 {
			return false
		}
	} else {
		ta := (y0 - apex.Y) / d.Y
		tb := (y1 - apex.Y) / d.Y
		if ta > tb {
			ta, tb = tb, ta
		}
		if ta > tmin {
			tmin = ta
		}
		if tb < tmax {
			tmax = tb
		}
	}
	return tmin <= tmax
}
