package channel

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"mmx/internal/antenna"
	"mmx/internal/stats"
	"mmx/internal/units"
)

func TestVec2Basics(t *testing.T) {
	v := Vec2{3, 4}
	if v.Len() != 5 {
		t.Errorf("Len = %g", v.Len())
	}
	if d := v.Dist(Vec2{0, 0}); d != 5 {
		t.Errorf("Dist = %g", d)
	}
	if got := v.Add(Vec2{1, 1}); got != (Vec2{4, 5}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(Vec2{1, 1}); got != (Vec2{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec2{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(Vec2{1, 2}); got != 11 {
		t.Errorf("Dot = %g", got)
	}
	if a := (Vec2{0, 1}).Angle(); math.Abs(a-math.Pi/2) > 1e-12 {
		t.Errorf("Angle = %g", a)
	}
}

func TestSegmentDistanceTo(t *testing.T) {
	s := Segment{Vec2{0, 0}, Vec2{10, 0}}
	if d := s.DistanceTo(Vec2{5, 3}); d != 3 {
		t.Errorf("mid distance = %g", d)
	}
	if d := s.DistanceTo(Vec2{-4, 3}); d != 5 {
		t.Errorf("end distance = %g", d)
	}
	z := Segment{Vec2{1, 1}, Vec2{1, 1}}
	if d := z.DistanceTo(Vec2{4, 5}); d != 5 {
		t.Errorf("degenerate segment distance = %g", d)
	}
}

func TestSegmentIntersect(t *testing.T) {
	a := Segment{Vec2{0, 0}, Vec2{10, 0}}
	b := Segment{Vec2{5, -5}, Vec2{5, 5}}
	ta, tb, ok := a.Intersect(b)
	if !ok || math.Abs(ta-0.5) > 1e-12 || math.Abs(tb-0.5) > 1e-12 {
		t.Errorf("Intersect = %g %g %v", ta, tb, ok)
	}
	// Parallel lines.
	c := Segment{Vec2{0, 1}, Vec2{10, 1}}
	if _, _, ok := a.Intersect(c); ok {
		t.Error("parallel lines should not intersect")
	}
}

func TestMirrorAcross(t *testing.T) {
	wall := Segment{Vec2{0, 0}, Vec2{10, 0}} // the x-axis
	img := wall.MirrorAcross(Vec2{3, 4})
	if img != (Vec2{3, -4}) {
		t.Errorf("MirrorAcross = %v", img)
	}
	// Degenerate wall mirrors to itself.
	z := Segment{Vec2{1, 1}, Vec2{1, 1}}
	if z.MirrorAcross(Vec2{5, 5}) != (Vec2{5, 5}) {
		t.Error("degenerate mirror should be identity")
	}
}

func TestPoseAngleTo(t *testing.T) {
	p := Pose{Pos: Vec2{0, 0}, Orientation: math.Pi / 2} // facing +y
	// Target straight ahead.
	if a := p.AngleTo(Vec2{0, 5}); math.Abs(a) > 1e-12 {
		t.Errorf("ahead angle = %g", a)
	}
	// Target to the right (+x) is -90° relative.
	if a := p.AngleTo(Vec2{5, 0}); math.Abs(a+math.Pi/2) > 1e-12 {
		t.Errorf("right angle = %g", a)
	}
}

// firstOrderPath builds the single-bounce path off wall wi as a
// standalone Path (Paths uses reflectionPoint1 with shared backing
// storage).
func (e *Environment) firstOrderPath(tx, rx Vec2, wi int) (Path, bool) {
	rp, _, ok := e.reflectionPoint1(tx, rx, wi)
	if !ok {
		return Path{}, false
	}
	pts := []Vec2{tx, rp, rx}
	return Path{
		Points:           pts,
		Length:           tx.Dist(rp) + rp.Dist(rx),
		DepartureAngle:   rp.Sub(tx).Angle(),
		ArrivalAngle:     rp.Sub(rx).Angle(),
		Reflections:      1,
		ReflectionLossDB: e.Room.Wall(wi).ReflectionLossDB,
		BlockageLossDB:   e.pathObstructionLossDB(pts),
	}, true
}

// LoSBlocked reports whether the direct tx→rx path currently crosses any
// blocker.
func (e *Environment) LoSBlocked(tx, rx Vec2) bool {
	return e.blockageLossDB(Segment{tx, rx}) > 0
}

// geometricallyValid is a sanity guard: a path's length can never be
// shorter than the straight-line distance.
func (p Path) geometricallyValid() bool {
	if len(p.Points) < 2 {
		return false
	}
	direct := p.Points[0].Dist(p.Points[len(p.Points)-1])
	return p.Length >= direct-1e-9 && !math.IsNaN(p.Length)
}

func newTestEnv(seed uint64) *Environment {
	rng := stats.NewRNG(seed)
	return NewEnvironment(NewLabRoom(rng), units.ISM24GHzCenter)
}

func TestLabRoom(t *testing.T) {
	r := NewLabRoom(stats.NewRNG(1))
	if r.Width != 6 || r.Height != 4 {
		t.Errorf("lab room %gx%g", r.Width, r.Height)
	}
	if len(r.Walls) != 4 {
		t.Fatalf("walls = %d", len(r.Walls))
	}
	for _, w := range r.Walls {
		if w.ReflectionLossDB < 6 || w.ReflectionLossDB >= 14 {
			t.Errorf("wall loss %g outside [6,14)", w.ReflectionLossDB)
		}
	}
}

func TestPathsLoSAndReflections(t *testing.T) {
	e := newTestEnv(2)
	tx, rx := Vec2{1, 2}, Vec2{5, 2}
	paths := e.Paths(tx, rx)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// First path is LoS.
	p0 := paths[0]
	if p0.Reflections != 0 || math.Abs(p0.Length-4) > 1e-9 {
		t.Errorf("LoS path wrong: %+v", p0)
	}
	if math.Abs(p0.DepartureAngle) > 1e-12 {
		t.Errorf("LoS departure = %g", p0.DepartureAngle)
	}
	if math.Abs(math.Abs(p0.ArrivalAngle)-math.Pi) > 1e-12 {
		t.Errorf("LoS arrival = %g", p0.ArrivalAngle)
	}
	// Expect all four first-order wall bounces for interior points.
	first := 0
	second := 0
	for _, p := range paths {
		switch p.Reflections {
		case 1:
			first++
			if p.ReflectionLossDB < 6 || p.ReflectionLossDB >= 14 {
				t.Errorf("1-bounce loss %g", p.ReflectionLossDB)
			}
		case 2:
			second++
			if p.ReflectionLossDB < 12 || p.ReflectionLossDB >= 28 {
				t.Errorf("2-bounce loss %g", p.ReflectionLossDB)
			}
		}
		if !p.geometricallyValid() {
			t.Errorf("invalid path %+v", p)
		}
	}
	if first != 4 {
		t.Errorf("first-order paths = %d, want 4", first)
	}
	if second == 0 {
		t.Error("expected some second-order paths")
	}
}

func TestFirstOrderPathGeometry(t *testing.T) {
	e := newTestEnv(3)
	tx, rx := Vec2{2, 1}, Vec2{4, 1}
	// Bounce off the y=0 wall (wall index 0): mirror symmetry puts the
	// reflection point at x=3, y=0 and length = 2*sqrt(1+1).
	p, ok := e.firstOrderPath(tx, rx, 0)
	if !ok {
		t.Fatal("no bottom-wall path")
	}
	rp := p.Points[1]
	if math.Abs(rp.X-3) > 1e-9 || math.Abs(rp.Y) > 1e-9 {
		t.Errorf("reflection point = %v, want (3,0)", rp)
	}
	want := 2 * math.Hypot(1, 1)
	if math.Abs(p.Length-want) > 1e-9 {
		t.Errorf("path length = %g, want %g", p.Length, want)
	}
	// Specular: angle in == angle out about the wall normal. Departure
	// heads down-right (-45°), arrival (looking back from rx) down-left.
	if math.Abs(p.DepartureAngle-(-math.Pi/4)) > 1e-9 {
		t.Errorf("departure = %g", p.DepartureAngle)
	}
}

func TestPathsReflectionMaxOrder(t *testing.T) {
	e := newTestEnv(4)
	tx, rx := Vec2{1, 1}, Vec2{5, 3}
	e.MaxReflections = 0
	if paths := e.Paths(tx, rx); len(paths) != 1 {
		t.Errorf("order 0: %d paths", len(paths))
	}
	e.MaxReflections = 1
	if paths := e.Paths(tx, rx); len(paths) != 5 {
		t.Errorf("order 1: %d paths, want 5", len(paths))
	}
	e.MaxReflections = 2
	n2 := len(e.Paths(tx, rx))
	if n2 <= 5 {
		t.Errorf("order 2: %d paths, want >5", n2)
	}
}

func TestBlockage(t *testing.T) {
	e := newTestEnv(5)
	tx, rx := Vec2{1, 2}, Vec2{5, 2}
	if e.LoSBlocked(tx, rx) {
		t.Fatal("LoS should start clear")
	}
	// A person standing right on the LoS.
	e.AddBlocker(&Blocker{Pos: Vec2{3, 2}, Radius: 0.25, LossDB: 12})
	if !e.LoSBlocked(tx, rx) {
		t.Fatal("LoS should now be blocked")
	}
	paths := e.Paths(tx, rx)
	if paths[0].BlockageLossDB != 12 {
		t.Errorf("LoS blockage loss = %g", paths[0].BlockageLossDB)
	}
	// Reflected paths off the side walls should mostly dodge the blocker.
	clear := 0
	for _, p := range paths[1:] {
		if p.BlockageLossDB == 0 {
			clear++
		}
	}
	if clear == 0 {
		t.Error("expected some unblocked reflected paths")
	}
	if got := e.BestPathClass(tx, rx); got != "nlos" {
		t.Errorf("BestPathClass = %q, want nlos", got)
	}
}

func TestBestPathClassLoS(t *testing.T) {
	e := newTestEnv(6)
	if got := e.BestPathClass(Vec2{1, 1}, Vec2{5, 3}); got != "los" {
		t.Errorf("BestPathClass = %q", got)
	}
}

func TestBlockerStepBounces(t *testing.T) {
	e := newTestEnv(7)
	b := &Blocker{Pos: Vec2{5.8, 2}, Radius: 0.3, LossDB: 12, Vel: Vec2{1, 0}}
	e.AddBlocker(b)
	for i := 0; i < 100; i++ {
		e.Step(0.1)
		if b.Pos.X < b.Radius-1e-9 || b.Pos.X > e.Room.Width-b.Radius+1e-9 ||
			b.Pos.Y < b.Radius-1e-9 || b.Pos.Y > e.Room.Height-b.Radius+1e-9 {
			t.Fatalf("blocker escaped: %+v", b.Pos)
		}
	}
	// It must have bounced (velocity flipped at least once).
	if b.Vel.X > 0 && b.Pos.X > 5.7 {
		t.Error("blocker never bounced off the wall")
	}
}

func isoPat() antenna.Pattern {
	return antenna.FixedBeam{Source: antenna.Isotropic{}, PeakDBi: 0}
}

func TestLoSGainMatchesFriis(t *testing.T) {
	e := newTestEnv(8)
	e.MaxReflections = 0 // isolate the direct path
	d := 3.0
	tx := Pose{Pos: Vec2{1, 2}}
	rx := Pose{Pos: Vec2{1 + d, 2}}
	got := e.GainDB(tx, isoPat(), rx, isoPat())
	want := -units.FSPL(d, e.FreqHz)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("LoS gain = %.2f dB, want %.2f (Friis)", got, want)
	}
}

func TestAntennaGainsAddToLink(t *testing.T) {
	e := newTestEnv(9)
	e.MaxReflections = 0
	tx := Pose{Pos: Vec2{1, 2}} // facing +x
	rx := Pose{Pos: Vec2{4, 2}, Orientation: math.Pi}
	iso := e.GainDB(tx, isoPat(), rx, isoPat())
	nb := antenna.NewNodeBeams()
	ap := antenna.NewAPAntenna()
	directive := e.GainDB(tx, nb.Beam1, rx, ap)
	// Boresight-to-boresight: the two peak gains add.
	want := iso + antenna.NodePeakGainDBi + antenna.APAntennaGainDBi
	if math.Abs(directive-want) > 0.2 {
		t.Errorf("directive gain = %.2f, want %.2f", directive, want)
	}
}

func TestBeamGainsOrthogonalityEffect(t *testing.T) {
	// Node facing the AP: Beam 1 (broadside) must deliver far more power
	// than Beam 0 (broadside null) on the direct path.
	e := newTestEnv(10)
	nb := antenna.NewNodeBeams()
	ap := antenna.NewAPAntenna()
	node := Pose{Pos: Vec2{1, 2}}                         // facing +x
	apPose := Pose{Pos: Vec2{5, 2}, Orientation: math.Pi} // facing -x
	h0, h1 := e.BeamGains(node, nb, apPose, ap)
	r := 20 * math.Log10(cmplx.Abs(h1)/cmplx.Abs(h0))
	if r < 6 {
		t.Errorf("Beam1/Beam0 gain ratio = %.1f dB, want >6 (ASK depth)", r)
	}
}

func TestGainDecaysWithDistanceProperty(t *testing.T) {
	e := newTestEnv(11)
	e.MaxReflections = 0
	f := func(a uint8) bool {
		d1 := 0.5 + float64(a%40)/10 // 0.5..4.4
		d2 := d1 + 0.5
		tx := Pose{Pos: Vec2{0.5, 2}}
		g1 := e.GainDB(tx, isoPat(), Pose{Pos: Vec2{0.5 + d1, 2}}, isoPat())
		g2 := e.GainDB(tx, isoPat(), Pose{Pos: Vec2{0.5 + d2, 2}}, isoPat())
		return g1 > g2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultipathChangesGain(t *testing.T) {
	// With reflections enabled the gain differs from pure LoS (fading).
	e := newTestEnv(12)
	tx := Pose{Pos: Vec2{1, 2}}
	rx := Pose{Pos: Vec2{5, 2.3}}
	withRefl := e.GainDB(tx, isoPat(), rx, isoPat())
	e.MaxReflections = 0
	losOnly := e.GainDB(tx, isoPat(), rx, isoPat())
	if math.Abs(withRefl-losOnly) < 1e-6 {
		t.Error("reflections had no effect on the channel gain")
	}
}

func TestPathGainZeroLength(t *testing.T) {
	e := newTestEnv(13)
	if g := e.PathGain(Path{}, Pose{}, isoPat(), Pose{}, isoPat()); g != 0 {
		t.Errorf("zero path gain = %v", g)
	}
}

func TestSamePointNoPaths(t *testing.T) {
	e := newTestEnv(14)
	p := Vec2{2, 2}
	for _, path := range e.Paths(p, p) {
		if path.Reflections == 0 {
			t.Error("coincident points should have no LoS path")
		}
	}
}

func TestInteriorWallOccludes(t *testing.T) {
	e := newTestEnv(30)
	// A drywall partition across the middle of the lab.
	e.Room.AddInteriorWall(Segment{Vec2{3, 0.5}, Vec2{3, 3.5}}, 8, 7)
	tx, rx := Vec2{1, 2}, Vec2{5, 2}
	paths := e.Paths(tx, rx)
	// The LoS crosses the partition: 7 dB penetration loss.
	if paths[0].Reflections != 0 || paths[0].BlockageLossDB != 7 {
		t.Errorf("LoS through partition: %+v", paths[0])
	}
	// Same-side link is unaffected.
	clear := e.Paths(Vec2{1, 1}, Vec2{2, 3})
	if clear[0].BlockageLossDB != 0 {
		t.Errorf("same-side LoS lost %g dB", clear[0].BlockageLossDB)
	}
}

func TestInteriorWallReflects(t *testing.T) {
	e := newTestEnv(31)
	e.Room.AddInteriorWall(Segment{Vec2{3, 0.5}, Vec2{3, 3.5}}, 8, 7)
	// Two nodes on the same (left) side: the partition provides an extra
	// first-order bounce beyond the four boundary walls.
	tx, rx := Vec2{1, 1.5}, Vec2{1.5, 2.5}
	first := 0
	var offPartition bool
	for _, p := range e.Paths(tx, rx) {
		if p.Reflections == 1 {
			first++
			if math.Abs(p.Points[1].X-3) < 1e-9 {
				offPartition = true
				if p.ReflectionLossDB != 8 {
					t.Errorf("partition bounce loss = %g", p.ReflectionLossDB)
				}
				// The bounce itself must not be charged penetration.
				if p.BlockageLossDB != 0 {
					t.Errorf("partition bounce charged %g dB penetration", p.BlockageLossDB)
				}
			}
		}
	}
	if first != 5 {
		t.Errorf("first-order paths = %d, want 5 (4 boundary + partition)", first)
	}
	if !offPartition {
		t.Error("no reflection off the partition")
	}
}

func TestInteriorWallSNREffect(t *testing.T) {
	// A concrete partition makes the cross-wall link much weaker than the
	// same geometry without it, while the same-side link is unchanged.
	rngA := stats.NewRNG(32)
	roomA := NewRoom(8, 4, rngA)
	envA := NewEnvironment(roomA, units.ISM24GHzCenter)
	rngB := stats.NewRNG(32)
	roomB := NewRoom(8, 4, rngB)
	roomB.AddInteriorWall(Segment{Vec2{4, 0}, Vec2{4, 4}}, 6, 40)
	envB := NewEnvironment(roomB, units.ISM24GHzCenter)

	tx := Pose{Pos: Vec2{1, 2}}
	rx := Pose{Pos: Vec2{7, 2}, Orientation: math.Pi}
	open := envA.GainDB(tx, isoPat(), rx, isoPat())
	walled := envB.GainDB(tx, isoPat(), rx, isoPat())
	if open-walled < 20 {
		t.Errorf("concrete wall only cost %.1f dB", open-walled)
	}
	// Same-side pair: negligible difference (the partition adds a bounce
	// but doesn't occlude).
	sameA := envA.GainDB(tx, isoPat(), Pose{Pos: Vec2{3, 3}}, isoPat())
	sameB := envB.GainDB(tx, isoPat(), Pose{Pos: Vec2{3, 3}}, isoPat())
	if math.Abs(sameA-sameB) > 3 {
		t.Errorf("same-side link moved %.1f dB", math.Abs(sameA-sameB))
	}
}

func TestHeightDifferenceCostsGain(t *testing.T) {
	e := newTestEnv(40)
	e.MaxReflections = 0
	tx := Pose{Pos: Vec2{1, 2}}
	rxFlat := Pose{Pos: Vec2{5, 2}}
	rxHigh := Pose{Pos: Vec2{5, 2}, Height: 2}
	flat := e.GainDB(tx, isoPat(), rxFlat, isoPat())
	high := e.GainDB(tx, isoPat(), rxHigh, isoPat())
	if high >= flat {
		t.Errorf("height offset should cost gain: %.2f vs %.2f", high, flat)
	}
	// 2 m over 4 m → elevation 26.6°: extra path (+1 dB) plus two
	// elevation rolloffs — meaningful but not severing (the 65° elevation
	// beam is the point).
	if flat-high > 10 {
		t.Errorf("height offset cost %.1f dB, too harsh for a 65° elevation beam", flat-high)
	}
	// Equal heights are exactly the planar result.
	rxSame := Pose{Pos: Vec2{5, 2}, Height: 1}
	txSame := Pose{Pos: Vec2{1, 2}, Height: 1}
	same := e.GainDB(txSame, isoPat(), rxSame, isoPat())
	if math.Abs(same-flat) > 1e-9 {
		t.Errorf("equal heights should not change the link: %.2f vs %.2f", same, flat)
	}
}

func TestElevationGainShape(t *testing.T) {
	hpbw := units.Deg2Rad(65)
	// Broadside: unity.
	if g := elevationGain(0, hpbw); g != 1 {
		t.Errorf("broadside = %g", g)
	}
	// At half the HPBW: −3 dB in power (1/√2 in field).
	if g := elevationGain(hpbw/2, hpbw); math.Abs(g-1/math.Sqrt2) > 0.01 {
		t.Errorf("half-HPBW field = %g", g)
	}
	// Monotone decreasing to the floor.
	if elevationGain(0.3, hpbw) <= elevationGain(0.9, hpbw) {
		t.Error("elevation gain should fall with angle")
	}
	if g := elevationGain(math.Pi/2, hpbw); g != 0.01 {
		t.Errorf("endfire floor = %g", g)
	}
	// Disabled model.
	if elevationGain(0.5, 0) != 1 {
		t.Error("hpbw=0 should disable the factor")
	}
}

// TestBeamGainsMatchPerBeamGain pins the shared two-beam kernel to the
// single-pattern API it replaces as the evaluation path: for every scene
// below, BeamGains and BeamGainsWithClass must return exactly the complex
// numbers Gain returns for each beam on its own (==, not within ε — the
// simulator's fingerprints hash these bits) and the class BestPathClass
// returns. Gain sums PathGain, which shares only pathTerms with the
// kernel, so a re-associated product or a dropped factor shows here.
func TestBeamGainsMatchPerBeamGain(t *testing.T) {
	literal := func(nb antenna.NodeBeams) antenna.NodeBeams {
		strip := func(p antenna.Pattern) antenna.Pattern {
			fb := p.(antenna.FixedBeam)
			return antenna.FixedBeam{Source: fb.Source, PeakDBi: fb.PeakDBi}
		}
		return antenna.NodeBeams{Beam0: strip(nb.Beam0), Beam1: strip(nb.Beam1)}
	}
	beamSets := map[string]antenna.NodeBeams{
		"node":           antenna.NewNodeBeams(),
		"non-orthogonal": antenna.NewNonOrthogonalBeams(),
		"extended":       antenna.NewExtendedNodeBeams(),
		"narrow":         antenna.NewNarrowNodeBeams(6),
		"literal":        literal(antenna.NewNodeBeams()),
	}
	apPats := map[string]antenna.Pattern{"ap": antenna.NewAPAntenna(), "iso": isoPat()}

	rng := stats.NewRNG(23)
	scenes := 0
	classes := map[string]int{}
	for room := 0; room < 6; room++ {
		for maxR := 0; maxR <= 2; maxR++ {
			e := NewEnvironment(NewRoom(8, 5, stats.NewRNG(uint64(100+room))), units.ISM24GHzCenter)
			e.MaxReflections = maxR
			e.Room.AddInteriorWall(Segment{Vec2{3, 1}, Vec2{3, 3.5}}, 8, 7)
			ap := Pose{Pos: Vec2{7.5, 2.5}, Orientation: math.Pi}
			if room%2 == 1 {
				// A height difference with both elevation patterns on.
				ap.Height = 1.2
				e.TxElevationHPBW = 65 * math.Pi / 180
				e.RxElevationHPBW = 62 * math.Pi / 180
			}
			nodes := []Pose{{Pos: ap.Pos, Orientation: 0.4}} // a node placed on the AP
			for k := 0; k < 8; k++ {
				nodes = append(nodes, Pose{
					Pos:         Vec2{rng.Uniform(0.2, 7.8), rng.Uniform(0.2, 4.8)},
					Orientation: rng.Uniform(-math.Pi, math.Pi),
					Height:      rng.Uniform(0, 0.3) * float64(room%2),
				})
			}
			for i, node := range nodes {
				e.Blockers = e.Blockers[:0]
				switch i % 3 {
				case 1: // on the sight line
					mid := node.Pos.Add(ap.Pos.Sub(node.Pos).Scale(0.5))
					e.AddBlocker(&Blocker{Pos: mid, Radius: 0.3, LossDB: 12.5})
				case 2: // off it (it may still sit on a reflection)
					e.AddBlocker(&Blocker{Pos: Vec2{rng.Uniform(0.5, 7.5), rng.Uniform(0.5, 4.5)}, Radius: 0.25, LossDB: 11})
				}
				class := e.BestPathClass(node.Pos, ap.Pos)
				classes[class]++
				for bname, nb := range beamSets {
					for pname, pat := range apPats {
						scenes++
						w0 := e.Gain(node, nb.Beam0, ap, pat)
						w1 := e.Gain(node, nb.Beam1, ap, pat)
						h0, h1, c := e.BeamGainsWithClass(node, nb, ap, pat)
						g0, g1 := e.BeamGains(node, nb, ap, pat)
						if h0 != w0 || h1 != w1 || g0 != w0 || g1 != w1 || c != class {
							t.Fatalf("room %d refl %d node %d %s/%s: kernel (%v, %v, %q), BeamGains (%v, %v), per-beam Gain (%v, %v, %q)",
								room, maxR, i, bname, pname, h0, h1, c, g0, g1, w0, w1, class)
						}
					}
				}
			}
		}
	}
	if scenes < 1000 || classes["los"] == 0 || classes["nlos"] == 0 || classes["blocked"] == 0 {
		t.Fatalf("thin coverage: %d scenes, classes %v", scenes, classes)
	}
}

// TestLinkEvaluationAllocatesNothing pins the link kernel at zero
// allocations per evaluation once its path scratch is pooled, in a room
// with an interior partition and a blocker: the wall list is indexed in
// place, never concatenated per enumeration. The race detector drops
// pooled scratch on purpose, so the count holds only without it.
func TestLinkEvaluationAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch under the race detector")
	}
	e := newTestEnv(50)
	e.Room.AddInteriorWall(Segment{Vec2{3, 0.5}, Vec2{3, 3.5}}, 8, 7)
	e.AddBlocker(&Blocker{Pos: Vec2{2, 2}, Radius: 0.3, LossDB: 12})
	nb, apPat := antenna.NewNodeBeams(), antenna.NewAPAntenna()
	node := Pose{Pos: Vec2{1, 1.5}}
	ap := Pose{Pos: Vec2{5, 2}, Orientation: math.Pi}
	e.BeamGainsWithClass(node, nb, ap, apPat) // sizes the pooled scratch
	allocs := testing.AllocsPerRun(100, func() { e.BeamGainsWithClass(node, nb, ap, apPat) })
	if allocs != 0 {
		t.Errorf("a link evaluation with one partition allocates %.0f times, want 0", allocs)
	}
}
