package channel

import "sync"

// Path is one propagation route from transmitter to receiver.
type Path struct {
	// Points traces the route: TX, any reflection points, RX.
	Points []Vec2
	// Length is the total traveled distance in meters.
	Length float64
	// DepartureAngle is the absolute azimuth of the first hop leaving TX.
	DepartureAngle float64
	// ArrivalAngle is the absolute azimuth of the last hop as seen from
	// RX looking back toward the path (direction of arrival).
	ArrivalAngle float64
	// Reflections counts wall bounces (0 for LoS).
	Reflections int
	// ReflectionLossDB is the summed per-bounce loss.
	ReflectionLossDB float64
	// BlockageLossDB is the summed penetration loss of blockers crossed.
	BlockageLossDB float64
}

// ExcessLossDB returns the path's loss beyond free space (reflections plus
// blockage).
func (p Path) ExcessLossDB() float64 { return p.ReflectionLossDB + p.BlockageLossDB }

// Paths enumerates the propagation paths from tx to rx in the environment:
// the direct path plus image-method reflections up to
// Environment.MaxReflections bounces. mmWave indoor channels are sparse
// (the paper cites "typically a few paths"), which this construction
// reproduces: a handful of geometric paths, each with its own loss class.
// Paths are returned strongest-class first (fewest reflections, shortest).
//
// Every Path's Points slice is a capped view into one backing array sized
// up front, so an enumeration costs at most two allocations regardless of
// how many paths exist — this is the per-node hot path of both the
// waveform transmitter and the network SINR engine. All state is
// call-local; concurrent Paths calls on a shared Environment remain safe.
func (e *Environment) Paths(tx, rx Vec2) []Path {
	out, _ := e.appendPaths(tx, rx, nil, nil)
	return out
}

// pathScratch recycles the two slices a path enumeration needs. The
// fold-and-discard callers (Gain, BeamGainsWithClass, BestPathClass)
// borrow one from the pool, so steady-state link evaluations allocate
// nothing — at 100k-node scale the per-evaluation garbage otherwise
// dominates GC time.
type pathScratch struct {
	out     []Path
	backing []Vec2
}

var pathScratchPool = sync.Pool{New: func() any { return new(pathScratch) }}

// appendPaths is the enumeration core behind Paths: it fills out and
// backing (reusing their capacity when sufficient) and returns both so a
// caller can recycle them. The returned Paths alias backing; they are
// valid until the slices are next reused.
func (e *Environment) appendPaths(tx, rx Vec2, out []Path, backing []Vec2) ([]Path, []Vec2) {
	room := e.Room
	maxR := e.MaxReflections
	nWalls := room.NumWalls()
	maxPaths := 1
	maxPts := 2
	if maxR >= 1 {
		maxPaths += nWalls
		maxPts += 3 * nWalls
	}
	if maxR >= 2 {
		maxPaths += nWalls * (nWalls - 1)
		maxPts += 4 * nWalls * (nWalls - 1)
	}
	if cap(out) < maxPaths {
		out = make([]Path, 0, maxPaths)
	} else {
		out = out[:0]
	}
	if cap(backing) < maxPts {
		backing = make([]Vec2, 0, maxPts)
	} else {
		backing = backing[:0]
	}

	// seal returns the points appended since start as an immutable-length
	// view (capped capacity: appending to one path can never clobber the
	// next).
	seal := func(start int) []Vec2 { return backing[start:len(backing):len(backing)] }

	// Direct (LoS) path.
	if tx != rx {
		start := len(backing)
		backing = append(backing, tx, rx)
		pts := seal(start)
		out = append(out, Path{
			Points:         pts,
			Length:         tx.Dist(rx),
			DepartureAngle: rx.Sub(tx).Angle(),
			ArrivalAngle:   tx.Sub(rx).Angle(),
			BlockageLossDB: e.pathObstructionLossDB(pts),
		})
	}

	if maxR >= 1 {
		for wi := 0; wi < nWalls; wi++ {
			rp, length, ok := e.reflectionPoint1(tx, rx, wi)
			if !ok {
				continue
			}
			start := len(backing)
			backing = append(backing, tx, rp, rx)
			pts := seal(start)
			out = append(out, Path{
				Points:           pts,
				Length:           length,
				DepartureAngle:   rp.Sub(tx).Angle(),
				ArrivalAngle:     rp.Sub(rx).Angle(),
				Reflections:      1,
				ReflectionLossDB: room.Wall(wi).ReflectionLossDB,
				BlockageLossDB:   e.pathObstructionLossDB(pts),
			})
		}
	}
	if maxR >= 2 {
		for w1 := 0; w1 < nWalls; w1++ {
			for w2 := 0; w2 < nWalls; w2++ {
				if w1 == w2 {
					continue
				}
				r1, r2, length, ok := e.reflectionPoints2(tx, rx, w1, w2)
				if !ok {
					continue
				}
				start := len(backing)
				backing = append(backing, tx, r1, r2, rx)
				pts := seal(start)
				out = append(out, Path{
					Points:           pts,
					Length:           length,
					DepartureAngle:   r1.Sub(tx).Angle(),
					ArrivalAngle:     r2.Sub(rx).Angle(),
					Reflections:      2,
					ReflectionLossDB: room.Wall(w1).ReflectionLossDB + room.Wall(w2).ReflectionLossDB,
					BlockageLossDB:   e.pathObstructionLossDB(pts),
				})
			}
		}
	}

	// Insertion sort: path counts are tiny (≤1+w+w(w−1) for w walls) and
	// this runs on every link evaluation — sort.Slice's reflection-based
	// swapper allocates and dominates at 100k-node scale.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && pathLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, backing
}

// pathLess orders paths strongest-class first: fewest reflections, then
// shortest.
func pathLess(a, b Path) bool {
	if a.Reflections != b.Reflections {
		return a.Reflections < b.Reflections
	}
	return a.Length < b.Length
}

// BlockageFlips reports whether one blocker change, the swept region r,
// flips the blockage of some leg of one path from tx to rx: the direct
// path (refl 0), the bounce off wall w1 (refl 1), or the bounce off w1
// then w2 (refl 2), walls indexed in Room.Wall's order from tx's side.
// A leg flips when blockageLossDB's own predicate,
// Segment.DistanceTo(pos) <= Radius, reads differently with the blocker
// at r.Seg.A and at r.Seg.B. A degenerate region (A == B) is a blocker
// that just appeared (AddBlocker), so there every leg within reach of B
// flips. A path the enumeration does not produce flips nothing.
//
// A path's BlockageLossDB is a fixed-order sum of per-leg, per-blocker
// indicators, and everything else about it is geometry no blocker
// moves: a path for which this returns false keeps every bit of its
// evaluation across the change.
func (e *Environment) BlockageFlips(tx, rx Vec2, refl, w1, w2 int, r SweptRegion) bool {
	var pts [4]Vec2
	n := 0
	switch {
	case refl > e.MaxReflections:
		return false
	case refl == 0 && tx != rx:
		pts, n = [4]Vec2{tx, rx}, 2
	case refl == 1:
		rp, _, ok := e.reflectionPoint1(tx, rx, w1)
		if !ok {
			return false
		}
		pts, n = [4]Vec2{tx, rp, rx}, 3
	case refl == 2 && w1 != w2:
		r1, r2, _, ok := e.reflectionPoints2(tx, rx, w1, w2)
		if !ok {
			return false
		}
		pts, n = [4]Vec2{tx, r1, r2, rx}, 4
	}
	appeared := r.Seg.A == r.Seg.B
	for i := 1; i < n; i++ {
		leg := Segment{pts[i-1], pts[i]}
		before := !appeared && leg.DistanceTo(r.Seg.A) <= r.Radius
		if before != (leg.DistanceTo(r.Seg.B) <= r.Radius) {
			return true
		}
	}
	return false
}

// reflectionPoint1 finds the single-bounce reflection point off wall wi,
// if the geometric reflection point falls on the wall, and the path's
// length tx → rp → rx (Hypot is symmetric, so a leg measured from either
// end has the same bits).
func (e *Environment) reflectionPoint1(tx, rx Vec2, wi int) (rp Vec2, length float64, ok bool) {
	w := e.Room.Wall(wi)
	img := w.Seg.MirrorAcross(tx)
	// The reflection point is where rx→img crosses the wall.
	ray := Segment{rx, img}
	t, u, ok := ray.Intersect(w.Seg)
	if !ok || t <= 1e-9 || t >= 1-1e-9 || u < 1e-9 || u > 1-1e-9 {
		return Vec2{}, 0, false
	}
	rp = w.Seg.PointAt(u)
	d1, d2 := rp.Dist(tx), rp.Dist(rx)
	if d1 < 1e-9 || d2 < 1e-9 {
		return Vec2{}, 0, false
	}
	// A real reflection keeps both endpoints on the same side of the
	// surface (matters for interior walls; boundary walls always pass).
	if !sameSide(w.Seg, tx, rx) {
		return Vec2{}, 0, false
	}
	return rp, d1 + d2, true
}

// reflectionPoints2 finds the double-bounce reflection points hitting wall
// w1 then w2, and the path's length tx → r1 → r2 → rx.
func (e *Environment) reflectionPoints2(tx, rx Vec2, w1i, w2i int) (r1, r2 Vec2, length float64, ok bool) {
	w1 := e.Room.Wall(w1i)
	w2 := e.Room.Wall(w2i)
	img1 := w1.Seg.MirrorAcross(tx)   // tx mirrored in w1
	img2 := w2.Seg.MirrorAcross(img1) // then in w2
	// Last bounce: rx→img2 crosses w2 at r2, strictly between the two.
	ray2 := Segment{rx, img2}
	t2, u2, ok := ray2.Intersect(w2.Seg)
	if !ok || t2 <= 1e-9 || t2 >= 1-1e-9 || u2 < 1e-9 || u2 > 1-1e-9 {
		return Vec2{}, Vec2{}, 0, false
	}
	r2 = w2.Seg.PointAt(u2)
	// First bounce: r2→img1 crosses w1 at r1, strictly between the two.
	ray1 := Segment{r2, img1}
	t1, u1, ok := ray1.Intersect(w1.Seg)
	if !ok || t1 <= 1e-9 || t1 >= 1-1e-9 || u1 < 1e-9 || u1 > 1-1e-9 {
		return Vec2{}, Vec2{}, 0, false
	}
	r1 = w1.Seg.PointAt(u1)
	d1, d2, d12 := r1.Dist(tx), r2.Dist(rx), r1.Dist(r2)
	if d1 < 1e-9 || d2 < 1e-9 || d12 < 1e-9 {
		return Vec2{}, Vec2{}, 0, false
	}
	// Both bounces must be true same-side reflections.
	if !sameSide(w1.Seg, tx, r2) || !sameSide(w2.Seg, r1, rx) {
		return Vec2{}, Vec2{}, 0, false
	}
	return r1, r2, d1 + d12 + d2, true
}

// sameSide reports whether a and b lie strictly on the same side of the
// infinite line through s (points on the line count as neither side).
func sameSide(s Segment, a, b Vec2) bool {
	d := s.B.Sub(s.A)
	ca := d.X*(a.Y-s.A.Y) - d.Y*(a.X-s.A.X)
	cb := d.X*(b.Y-s.A.Y) - d.Y*(b.X-s.A.X)
	return ca*cb > 0
}
