package simnet

import (
	"math"

	"mmx/internal/channel"
)

// This file maps a blocker's swept region (channel.SweptRegion) onto the
// set of nodes whose cached link evaluations it can have changed, using
// the sparse core's 128×128 pose grid. The contract is conservative
// soundness: every node whose evaluation actually changes must be
// marked; marking extras only costs a redundant re-evaluation.
//
// Blockage enters a link evaluation exactly one way: a path leg (node →
// reflection point → … → AP) pays a blocker's LossDB iff the leg passes
// within Radius of the blocker's position (blockageLossDB). So a node's
// evaluation can change only if some leg of some of its paths comes
// within Radius of the blocker's old or new position — both inside the
// swept capsule. The image method makes the leg geometry testable
// without enumerating per-node paths: unfolding a k-bounce path across
// its walls straightens it into the segment node → apex, where the apex
// is the AP mirrored through the reflection walls (in first-hit order),
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
// fan hull(rect ∪ {apex}), whose boundary is covered by the rect's four
// edges and the apex→corner segments. A capsule within reach of the fan
// either comes within reach of one of those eight segments or lies
// entirely inside the fan (capsule start inside the hull). Both tests
// are exact segment arithmetic, so a quadtree-style descent over the
// grid prunes whole subrectangles the corridor provably cannot touch
// and visits O(affected cells) instead of all 16384 per corridor.

// sweptSlack pads the corridor admission radius. The blockage indicator
// and the corridor tests run different (individually exact) float
// sequences, so a leg sitting numerically on the radius boundary could
// otherwise fall on opposite sides; one micrometer dwarfs the rounding
// of a handful of float64 ops at room scale and is irrelevant against
// any physical blocker radius.
const sweptSlack = 1e-6

// corridor is one unfolded propagation geometry (direct, or via one or
// two reflection walls): the mirrored-AP apex, the capsule variant to
// test each leg against, and each variant's angular sector from the apex
// (the cheap prune the quadtree descent tries before exact segment
// arithmetic).
type corridor struct {
	apex channel.Vec2
	caps [3]channel.SweptRegion
	secs [3]sector
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

func newCorridor(apex channel.Vec2, caps [3]channel.SweptRegion, n int, gates ...channel.Segment) corridor {
	co := corridor{apex: apex, caps: caps, nCaps: n, nGates: len(gates)}
	for c := 0; c < n; c++ {
		co.secs[c] = makeSector(apex, caps[c])
	}
	copy(co.gates[:], gates)
	return co
}

func mirrorSeg(w, s channel.Segment) channel.Segment {
	return channel.Segment{A: w.MirrorAcross(s.A), B: w.MirrorAcross(s.B)}
}

func mirrorRegion(w channel.Segment, k channel.SweptRegion) channel.SweptRegion {
	return channel.SweptRegion{Seg: mirrorSeg(w, k.Seg), Radius: k.Radius}
}

// buildCorridors enumerates the unfolded corridors for swept region k,
// mirroring appendPaths' path set: the direct segment, one bounce off
// every wall, and every ordered wall pair up to MaxReflections — once
// per AP apex, because a node's cached evaluations include its serving
// link and any cross-AP interference links, and a blocker crossing a
// path toward ANY AP can change one of them. Paths the enumeration
// would reject (reflection point off the wall, wrong side) only shrink
// the true affected set, so including their corridors unconditionally
// is conservative.
func (s *sparseState) buildCorridors(nw *Network, k channel.SweptRegion) []corridor {
	out := s.corridorScratch[:0]
	room := nw.Env.Room
	walls := s.wallScratch[:0]
	walls = append(walls, room.Walls...)
	walls = append(walls, room.Interior...)
	s.wallScratch = walls
	for _, a := range nw.APs {
		ap := a.Pose.Pos
		out = append(out, newCorridor(ap, [3]channel.SweptRegion{k}, 1))
		if nw.Env.MaxReflections < 1 {
			continue
		}
		for i := range walls {
			w1 := walls[i].Seg
			// Single bounce off w1: legs node→rp and rp→AP unfold onto
			// node→M₁(AP); the second leg's image needs the mirrored capsule.
			k1 := mirrorRegion(w1, k)
			out = append(out, newCorridor(w1.MirrorAcross(ap), [3]channel.SweptRegion{k, k1}, 2, w1))
			if nw.Env.MaxReflections < 2 {
				continue
			}
			for j := range walls {
				if j == i {
					continue
				}
				w2 := walls[j].Seg
				// Double bounce w1 then w2 (node side first, matching
				// reflectionPoints2): apex M₁(M₂(AP)), legs test against
				// K, M₁(K), M₁(M₂(K)).
				out = append(out, newCorridor(
					w1.MirrorAcross(w2.MirrorAcross(ap)),
					[3]channel.SweptRegion{k, k1, mirrorRegion(w1, mirrorRegion(w2, k))}, 3,
					w1, mirrorSeg(w1, w2)))
			}
		}
	}
	s.corridorScratch = out
	return out
}

// regionStale marks evalStale every node some propagation path of which
// can cross the swept region — the region-scoped replacement for the
// stale-everything epoch response.
func (s *sparseState) regionStale(nw *Network, k channel.SweptRegion) {
	for i := range s.buildCorridors(nw, k) {
		co := &s.corridorScratch[i]
		s.descend(co, 0, 0, s.nx, s.ny)
	}
}

// descend walks the grid quadtree-style over the cell-index rectangle
// [ix0, ix0+w) × [iy0, iy0+h), pruning subrectangles the corridor
// cannot reach and testing each node in surviving leaf cells exactly.
func (s *sparseState) descend(co *corridor, ix0, iy0, w, h int) {
	x0 := float64(ix0) * s.cellW
	y0 := float64(iy0) * s.cellH
	x1 := float64(ix0+w) * s.cellW
	y1 := float64(iy0+h) * s.cellH
	// Boundary cells also hold any node cellIndex clamped in from
	// outside the room, so their rectangles extend to the all-time node
	// bounding box. (Extending to ±∞ would be sound too, but then every
	// far apex's fan contains every capsule through the giant boundary
	// rects and the descent degenerates into a full boundary-ring walk.)
	if ix0 == 0 {
		x0 = math.Min(x0, s.bbMin.X)
	}
	if ix0+w == s.nx {
		x1 = math.Max(x1, s.bbMax.X)
	}
	if iy0 == 0 {
		y0 = math.Min(y0, s.bbMin.Y)
	}
	if iy0+h == s.ny {
		y1 = math.Max(y1, s.bbMax.Y)
	}
	if !co.nearRect(x0, y0, x1, y1) {
		return
	}
	if w == 1 && h == 1 {
		for _, n := range s.cells[iy0*s.nx+ix0] {
			if !n.sp.evalStale && co.nearNode(n.Pose.Pos) {
				s.markEvalStale(n)
			}
		}
		return
	}
	if w >= h {
		s.descend(co, ix0, iy0, w/2, h)
		s.descend(co, ix0+w/2, iy0, w-w/2, h)
	} else {
		s.descend(co, ix0, iy0, w, h/2)
		s.descend(co, ix0, iy0+h/2, w, h-h/2)
	}
}

// nearNode is the exact per-node corridor test applied inside surviving
// leaf cells: is segment(p, apex) within reach of any capsule variant?
// Every unfolded leg image is a subsegment of that segment, so the test
// is still a conservative superset per leg, while far tighter than the
// cell-level fan test when the grid cells are coarse (kilometer-scale
// fields quantize a meters-wide corridor to cell-wide strips otherwise).
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
		if k.Seg.DistanceToSegment(leg) <= k.Radius+sweptSlack {
			return true
		}
	}
	return false
}

// nearRect reports whether any node position p inside the rectangle can
// have segment(p, apex) within reach of one of the corridor's capsules.
// The fan of those segments is hull(rect ∪ {apex}); a capsule within
// reach of it is within reach of the hull boundary — covered by the
// rect's edges and the apex→corner segments — unless it starts inside
// the hull, caught by fanContains.
func (co *corridor) nearRect(x0, y0, x1, y1 float64) bool {
	corners := [4]channel.Vec2{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
	for c := 0; c < co.nCaps; c++ {
		if !co.secs[c].admitsRect(co.apex, &corners) {
			continue
		}
		k := &co.caps[c]
		reach := k.Radius + sweptSlack
		for i := 0; i < 4; i++ {
			edge := channel.Segment{A: corners[i], B: corners[(i+1)%4]}
			if k.Seg.DistanceToSegment(edge) <= reach {
				return true
			}
			spoke := channel.Segment{A: co.apex, B: corners[i]}
			if k.Seg.DistanceToSegment(spoke) <= reach {
				return true
			}
		}
		if fanContains(co.apex, x0, y0, x1, y1, k.Seg.A) {
			return true
		}
	}
	return false
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
