package channel

import (
	"math"
	"testing"

	"mmx/internal/stats"
	"mmx/internal/units"
)

// flipOracle is the Paths-based form of BlockageFlips. It enumerates
// Paths(tx, rx) with the blocker at the region's start (absent, for a
// degenerate region: AddBlocker's newcomer) and again at its end, and
// recomputes each leg's blockage indicator from the paths' Points with
// blockageLossDB's rule. It returns the (reflections, first wall, second
// wall) triple of every path with a leg whose indicator differs, and how
// many such paths each reflection order has. A reflection point's wall is
// the wall nearest to it, boundary walls first, then partitions.
func flipOracle(t testing.TB, e *Environment, tx, rx Vec2, k SweptRegion) (map[[3]int]bool, [3]int) {
	t.Helper()
	saved := e.Blockers
	defer func() { e.Blockers = saved }()
	e.Blockers = nil
	if k.Seg.A != k.Seg.B {
		e.Blockers = []*Blocker{{Pos: k.Seg.A, Radius: k.Radius, LossDB: 12}}
	}
	before := e.Paths(tx, rx)
	e.Blockers = []*Blocker{{Pos: k.Seg.B, Radius: k.Radius, LossDB: 12}}
	after := e.Paths(tx, rx)
	if len(before) != len(after) {
		t.Fatalf("a blocker changed the path set: %d paths, then %d", len(before), len(after))
	}
	walls := append(append([]Wall{}, e.Room.Walls...), e.Room.Interior...)
	nearest := func(p Vec2) int {
		best := 0
		for i := range walls {
			if walls[i].Seg.DistanceTo(p) < walls[best].Seg.DistanceTo(p) {
				best = i
			}
		}
		return best
	}
	flipped := map[[3]int]bool{}
	var perOrder [3]int
	for i, p := range after {
		flip := false
		for j := 1; j < len(p.Points); j++ {
			was := false
			if k.Seg.A != k.Seg.B {
				was = (Segment{before[i].Points[j-1], before[i].Points[j]}).DistanceTo(k.Seg.A) <= k.Radius
			}
			is := (Segment{p.Points[j-1], p.Points[j]}).DistanceTo(k.Seg.B) <= k.Radius
			flip = flip || was != is
		}
		if !flip {
			continue
		}
		key := [3]int{p.Reflections, 0, 0}
		for r := 1; r <= p.Reflections; r++ {
			key[r] = nearest(p.Points[r])
		}
		flipped[key] = true
		perOrder[p.Reflections]++
	}
	return flipped, perOrder
}

// checkFlips holds BlockageFlips to flipOracle on every (reflections,
// w1, w2) triple of the room — the direct path, every wall, every ordered
// wall pair — and returns how many triples flip. Per triple the two must
// agree; per reflection order the flipping triples must number the
// oracle's flipping paths.
func checkFlips(t testing.TB, e *Environment, tx, rx Vec2, k SweptRegion) int {
	t.Helper()
	want, wantPerOrder := flipOracle(t, e, tx, rx, k)
	var perOrder [3]int
	n := e.Room.NumWalls()
	check := func(refl, w1, w2 int) {
		got := e.BlockageFlips(tx, rx, refl, w1, w2, k)
		if got != want[[3]int{refl, w1, w2}] {
			t.Fatalf("tx %+v rx %+v, %d reflections off walls %d, %d, region %+v (max %d reflections, %d walls): BlockageFlips says %v, the Paths oracle %v",
				tx, rx, refl, w1, w2, k, e.MaxReflections, n, got, !got)
		}
		if got {
			perOrder[refl]++
		}
	}
	check(0, 0, 0)
	for w1 := 0; w1 < n; w1++ {
		check(1, w1, 0)
		for w2 := 0; w2 < n; w2++ {
			if w2 != w1 {
				check(2, w1, w2)
			}
		}
	}
	if perOrder != wantPerOrder {
		t.Fatalf("tx %+v rx %+v region %+v: flipping triples per order %v, oracle paths %v", tx, rx, k, perOrder, wantPerOrder)
	}
	return perOrder[0] + perOrder[1] + perOrder[2]
}

// flipEnv builds a seeded room of 4–20 × 3–14 m with parts interior
// partitions, strictly inside it, at the given reflection order.
func flipEnv(rng *stats.RNG, parts, maxR int) *Environment {
	room := NewRoom(rng.Uniform(4, 20), rng.Uniform(3, 14), rng)
	in := func() Vec2 {
		return Vec2{rng.Uniform(0.1, 0.9) * room.Width, rng.Uniform(0.1, 0.9) * room.Height}
	}
	for i := 0; i < parts; i++ {
		room.AddInteriorWall(Segment{in(), in()}, rng.Uniform(6, 14), rng.Uniform(3, 10))
	}
	e := NewEnvironment(room, units.ISM24GHzCenter)
	e.MaxReflections = maxR
	return e
}

// flipShapes names the kinds of blocker change flipCase draws.
var flipShapes = []string{"move", "pedestrian tick", "appearance", "radius boundary"}

// flipCase draws a link and one blocker change of the given shape. The
// change's start is drawn near a leg of one of the link's paths, so both
// answers are common; "radius boundary" puts one end 5e-7 m inside or
// outside the radius of such a leg, where a padded or slack test differs
// from the exact one.
func flipCase(rng *stats.RNG, e *Environment, shape int) (tx, rx Vec2, k SweptRegion) {
	w, h := e.Room.Width, e.Room.Height
	tx = Vec2{rng.Uniform(0, w), rng.Uniform(0, h)}
	rx = Vec2{rng.Uniform(0, w), rng.Uniform(0, h)}
	k.Radius = rng.Uniform(0.05, 1)
	paths := e.Paths(tx, rx)
	p := paths[rng.Intn(len(paths))]
	j := 1 + rng.Intn(len(p.Points)-1)
	leg := Segment{p.Points[j-1], p.Points[j]}
	on := leg.PointAt(rng.Uniform(0, 1))
	d := leg.B.Sub(leg.A)
	normal := Vec2{-d.Y, d.X}.Scale(1 / d.Len())
	walk := func(dist float64) Vec2 {
		sin, cos := math.Sincos(rng.Uniform(-math.Pi, math.Pi))
		return Vec2{dist * cos, dist * sin}
	}
	k.Seg.A = on.Add(walk(rng.Uniform(0, 2*k.Radius)))
	switch shape {
	case 0:
		k.Seg.B = k.Seg.A.Add(walk(rng.Uniform(0, 2)))
	case 1:
		k.Seg.B = k.Seg.A.Add(walk(0.075))
	case 2:
		k.Seg.B = k.Seg.A
	case 3:
		edge := on.Add(normal.Scale(k.Radius + 5e-7*float64(2*rng.Intn(2)-1)))
		k.Seg.B = k.Seg.A.Add(walk(rng.Uniform(0, 2)))
		if rng.Intn(2) == 0 {
			k.Seg.A = edge
		} else {
			k.Seg.B = edge
		}
	}
	return tx, rx, k
}

// TestBlockageFlipsMatchesPathsOracle holds BlockageFlips to flipOracle
// triple by triple over 12 000 seeded links: rooms with 0–2 partitions,
// 0–2 reflections, and each shape of flipShapes. Both answers must be
// common in every shape.
func TestBlockageFlipsMatchesPathsOracle(t *testing.T) {
	const trials = 12000
	rng := stats.NewRNG(97)
	var some, tried [4]int
	for i := 0; i < trials; i++ {
		shape := i % len(flipShapes)
		e := flipEnv(rng, rng.Intn(3), rng.Intn(3))
		tx, rx, k := flipCase(rng, e, shape)
		tried[shape]++
		if checkFlips(t, e, tx, rx, k) > 0 {
			some[shape]++
		}
	}
	for s, name := range flipShapes {
		if 10*some[s] < tried[s] || 10*some[s] > 9*tried[s] {
			t.Errorf("%s: %d of %d links had a flipping path — both answers must be common", name, some[s], tried[s])
		}
	}
	t.Logf("links with a flipping path: %v of %v per shape", some, tried)
}

// FuzzBlockageFlips runs checkFlips on a generated link and change: the
// room's seed, partition count and reflection order, the link's ends and
// the region's, as fractions of the room, and its radius. Equal ends are
// an appearance.
func FuzzBlockageFlips(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), 0.2, 0.5, 0.8, 0.5, 0.5, 0.45, 0.5, 0.55, 0.3)
	f.Add(uint64(2), uint8(1), uint8(2), 0.1, 0.2, 0.9, 0.7, 0.4, 0.4, 0.4, 0.4, 0.25)
	f.Add(uint64(3), uint8(2), uint8(1), 0.3, 0.8, 0.6, 0.1, 0.0, 0.0, 1.0, 1.0, 0.6)
	f.Fuzz(func(t *testing.T, seed uint64, parts, refl uint8, txX, txY, rxX, rxY, aX, aY, bX, bY, radius float64) {
		for _, v := range []float64{txX, txY, rxX, rxY, aX, aY, bX, bY, radius} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		e := flipEnv(stats.NewRNG(seed), int(parts)%3, int(refl)%3)
		at := func(x, y float64) Vec2 {
			return Vec2{e.Room.Width * math.Min(math.Max(x, -0.5), 1.5), e.Room.Height * math.Min(math.Max(y, -0.5), 1.5)}
		}
		k := SweptRegion{Seg: Segment{A: at(aX, aY), B: at(bX, bY)}, Radius: math.Min(math.Max(radius, 0.01), 3)}
		checkFlips(t, e, at(txX, txY), at(rxX, rxY), k)
	})
}

// FuzzBlockageLoss checks blockageLossDB, with its bounding-box skip,
// against the unfiltered sum of every blocker within Radius of the leg.
// Each input places four blockers: one off the leg's interior along its
// normal and one off each endpoint, all at Radius+off (off ≈ ±1e-9 in
// the seeds, straddling the exact test), plus one free one. Distinct
// power-of-two losses make the sum name the set of blockers counted.
func FuzzBlockageLoss(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 0.0, 0.5, math.Pi/2, 0.5, -1e-9, 3.0, 3.0)
	f.Add(0.0, 0.0, 10.0, 0.0, 0.5, -math.Pi/2, 0.5, 1e-9, 3.0, 0.2)
	f.Add(1.0, 1.0, 4.0, 5.0, 0.0, math.Atan2(-4, -3), 0.3, -1e-9, 4.1, 5.2)
	f.Add(1.0, 1.0, 4.0, 5.0, 1.0, math.Atan2(4, 3), 0.3, 1e-9, 0.9, 0.8)
	f.Add(2.0, 2.0, 2.0, 2.0, 0.3, 1.0, 0.4, -1e-9, 2.3, 2.3)
	f.Add(2.0, 2.0, 2.0, 2.0, 0.3, -2.5, 0.4, 1e-9, 1.6, 2.0)
	f.Add(-2e4, 1.5e4, 2e4, -1.9e4, 0.37, 2.1, 0.35, -1e-9, 1.99e4, 2e4)
	f.Add(2e4, 2e4, 2e4, 2e4, 0.0, 0.7, 0.25, -1e-9, 2e4, 1.99e4)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, at, phi, radius, off, px, py float64) {
		for _, v := range []float64{ax, ay, bx, by, at, phi, radius, off, px, py} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		clamp := func(v, lo, hi float64) float64 { return math.Min(math.Max(v, lo), hi) }
		coord := func(v float64) float64 { return clamp(v, -2e4, 2e4) }
		seg := Segment{A: Vec2{coord(ax), coord(ay)}, B: Vec2{coord(bx), coord(by)}}
		r := clamp(radius, 0, 50)
		reach := r + clamp(off, -1, 1)
		dir := Vec2{math.Cos(phi), math.Sin(phi)}
		normal := dir
		if d := seg.B.Sub(seg.A); d.Dot(d) > 0 {
			l := math.Sqrt(d.Dot(d))
			normal = Vec2{-d.Y / l, d.X / l}
			if dir.Dot(normal) < 0 {
				normal = normal.Scale(-1)
			}
		}
		e := &Environment{Blockers: []*Blocker{
			{Pos: seg.PointAt(clamp(at, 0, 1)).Add(normal.Scale(reach)), Radius: r, LossDB: 1},
			{Pos: seg.A.Add(dir.Scale(reach)), Radius: r, LossDB: 2},
			{Pos: seg.B.Add(dir.Scale(reach)), Radius: r, LossDB: 4},
			{Pos: Vec2{coord(px), coord(py)}, Radius: r, LossDB: 8},
		}}
		want := 0.0
		for _, b := range e.Blockers {
			if seg.DistanceTo(b.Pos) <= b.Radius {
				want += b.LossDB
			}
		}
		if got := e.blockageLossDB(seg); got != want {
			t.Fatalf("leg %v: blockageLossDB = %v, unfiltered sum %v (blockers %v %v %v %v)",
				seg, got, want, *e.Blockers[0], *e.Blockers[1], *e.Blockers[2], *e.Blockers[3])
		}
	})
}
