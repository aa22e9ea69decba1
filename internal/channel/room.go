package channel

import (
	"math"

	"mmx/internal/stats"
)

// Wall is one reflecting surface of the room.
type Wall struct {
	Seg Segment
	// ReflectionLossDB is the power lost at each bounce off this wall.
	// The paper's §6.1 loss classes put NLoS paths 10–20 dB below LoS;
	// per-wall losses are drawn from that range.
	ReflectionLossDB float64
	// PenetrationLossDB is the power lost by a path passing *through*
	// the wall. Boundary walls are never crossed (the room is the
	// world), so it only matters for interior walls; at 24 GHz drywall
	// costs ≈5–10 dB and concrete is effectively opaque.
	PenetrationLossDB float64
}

// Blocker is a human-scale obstacle (a standing or walking person, a
// cabinet): any propagation path passing within Radius of Pos suffers
// LossDB of additional attenuation. Velocity lets the environment move it.
type Blocker struct {
	Pos    Vec2
	Radius float64
	// LossDB is the penetration loss of this obstacle (10–15 dB for a
	// person at 24 GHz, §6.1).
	LossDB float64
	// Vel is the blocker's walking velocity in m/s.
	Vel Vec2
}

// Room is a rectangular space with four reflecting boundary walls and any
// number of interior partitions (which both reflect and occlude).
type Room struct {
	Width, Height float64 // meters; walls at x∈{0,Width}, y∈{0,Height}
	Walls         []Wall
	// Interior partitions: reflecting surfaces inside the room that
	// paths can also cross (paying PenetrationLossDB each time).
	Interior []Wall
}

// NewRoom builds a rectangular room whose four walls get per-bounce
// reflection losses drawn uniformly from [6, 14) dB using rng
// (deterministic per seed). Together with the reflected path's extra
// spreading loss (a few dB in room-scale geometry), the *total* NLoS
// excess over LoS lands in the paper's 10–20 dB class (§6.1).
func NewRoom(width, height float64, rng *stats.RNG) *Room {
	corners := []Vec2{{0, 0}, {width, 0}, {width, height}, {0, height}}
	r := &Room{Width: width, Height: height}
	for i := range corners {
		r.Walls = append(r.Walls, Wall{
			Seg:              Segment{corners[i], corners[(i+1)%4]},
			ReflectionLossDB: rng.Uniform(6, 14),
		})
	}
	return r
}

// NewLabRoom returns the paper's evaluation space: the 6 m x 4 m lab of
// §9.2 with standard-furniture reflectivity.
func NewLabRoom(rng *stats.RNG) *Room {
	return NewRoom(6, 4, rng)
}

// AddInteriorWall places a partition inside the room. reflectLossDB is
// the per-bounce loss; penetrationLossDB the through-loss. Typical 24 GHz
// values: drywall ≈(8, 7), glass ≈(10, 3), concrete ≈(6, 40).
func (r *Room) AddInteriorWall(seg Segment, reflectLossDB, penetrationLossDB float64) {
	r.Interior = append(r.Interior, Wall{
		Seg:               seg,
		ReflectionLossDB:  reflectLossDB,
		PenetrationLossDB: penetrationLossDB,
	})
}

// NumWalls counts every reflecting surface: the boundary walls, then the
// interior partitions.
func (r *Room) NumWalls() int { return len(r.Walls) + len(r.Interior) }

// Wall returns reflecting surface i of NumWalls' order — the one wall
// order path enumeration, BlockageFlips and their consumers share. It
// indexes the two lists in place, so enumerating paths in a room with
// partitions allocates no combined list.
func (r *Room) Wall(i int) *Wall {
	if i < len(r.Walls) {
		return &r.Walls[i]
	}
	return &r.Interior[i-len(r.Walls)]
}

// Environment is a complete propagation scene: a room, its moving
// blockers, and the carrier frequency.
type Environment struct {
	Room     *Room
	Blockers []*Blocker
	// FreqHz is the carrier frequency (sets wavelength and FSPL).
	FreqHz float64
	// MaxReflections bounds the image-method order (0 = LoS only,
	// 1 = single bounce, 2 = double bounce). Default 2.
	MaxReflections int
	// TxElevationHPBW and RxElevationHPBW are the elevation-plane
	// half-power beamwidths (radians) applied when the two poses sit at
	// different heights: the node's patches have a 65° elevation beam
	// (§9.1) and the AP dipole 62° (§8.2). Zero disables the factor.
	TxElevationHPBW, RxElevationHPBW float64
	// epoch counts scene changes that may have altered propagation: a
	// Step that actually moved a blocker, or an AddBlocker. Consumers
	// caching link evaluations (the sparse coupling core) compare it to
	// decide whether blocker motion stales their cache; SweptSince tells
	// them *where* the changes happened so they can invalidate by region
	// instead of wholesale.
	epoch uint64
	// swept logs the conservative footprint of every blocker change,
	// tagged with the epoch it happened in, so cache consumers can
	// invalidate only the region a change can reach. The log is bounded:
	// sweptFloor is the newest epoch the log no longer covers, and
	// SweptSince refuses spans reaching at or below it.
	swept      []sweptEntry
	sweptFloor uint64
}

// SweptRegion is the conservative footprint of one blocker change within
// one epoch: the capsule the blocker's disc swept moving from Seg.A to
// Seg.B (degenerate — both endpoints equal — for a blocker that just
// appeared). Blockage is a pure function of the blocker's endpoint
// positions, so any propagation leg whose blockage indicator can have
// flipped passes within Radius of this capsule's spine; everything
// farther away provably kept its evaluation.
type SweptRegion struct {
	Seg    Segment
	Radius float64
}

type sweptEntry struct {
	epoch  uint64
	region SweptRegion
}

// maxSweptEntries bounds the swept log. At one entry per moving blocker
// per Step, 4096 covers hundreds of epochs of a dense crowd between two
// consumer syncs; a consumer that falls further behind gets ok=false
// from SweptSince and invalidates everything, which is always sound.
const maxSweptEntries = 4096

// logSwept appends one region under the current epoch, evicting the
// oldest whole epoch (and raising sweptFloor past it) when the log is
// full.
func (e *Environment) logSwept(r SweptRegion) {
	if len(e.swept) >= maxSweptEntries {
		first := e.swept[0].epoch
		drop := 0
		for drop < len(e.swept) && e.swept[drop].epoch == first {
			drop++
		}
		e.swept = append(e.swept[:0], e.swept[drop:]...)
		e.sweptFloor = first
	}
	e.swept = append(e.swept, sweptEntry{epoch: e.epoch, region: r})
}

// SweptSince appends to buf the swept regions of every blocker change in
// epochs (from, Epoch()] and reports whether the bounded log still
// covers that whole span. ok=false — the span reaches past the log's
// retention — means the caller cannot know where changes happened and
// must treat the entire scene as changed.
func (e *Environment) SweptSince(from uint64, buf []SweptRegion) ([]SweptRegion, bool) {
	if from < e.sweptFloor {
		return buf, false
	}
	for i := range e.swept {
		if e.swept[i].epoch > from {
			buf = append(buf, e.swept[i].region)
		}
	}
	return buf, true
}

// Epoch returns a counter that advances whenever blocker motion may have
// changed the propagation picture. Equal epochs guarantee no blocker has
// moved between the two observations.
func (e *Environment) Epoch() uint64 { return e.epoch }

// NewEnvironment creates a scene at the 24 GHz ISM band center with the
// paper's elevation beamwidths.
func NewEnvironment(room *Room, freqHz float64) *Environment {
	return &Environment{
		Room: room, FreqHz: freqHz, MaxReflections: 2,
		TxElevationHPBW: 65 * math.Pi / 180,
		RxElevationHPBW: 62 * math.Pi / 180,
	}
}

// AddBlocker places an obstacle in the scene. The scene epoch advances
// and the blocker's footprint is logged as a degenerate swept region, so
// region-invalidating consumers re-check exactly the paths the newcomer
// can shadow.
func (e *Environment) AddBlocker(b *Blocker) {
	e.Blockers = append(e.Blockers, b)
	e.epoch++
	e.logSwept(SweptRegion{Seg: Segment{A: b.Pos, B: b.Pos}, Radius: b.Radius})
}

// Step advances all blockers by dt seconds, bouncing them off the walls so
// "people walking around" (§9.2) stay inside the room. The epoch advances
// only when some blocker's position actually changed — a static crowd
// (zero velocities, or walkers pinned against a wall) costs cache
// consumers nothing — and each moved blocker logs the capsule its disc
// swept. Only the endpoint positions matter for blockage, so the straight
// old→new capsule is a sound footprint even when the wall clamp bent the
// actual trajectory.
func (e *Environment) Step(dt float64) {
	moved := false
	for _, b := range e.Blockers {
		old := b.Pos
		b.Pos = b.Pos.Add(b.Vel.Scale(dt))
		if b.Pos.X < b.Radius {
			b.Pos.X = b.Radius
			b.Vel.X = math.Abs(b.Vel.X)
		}
		if b.Pos.X > e.Room.Width-b.Radius {
			b.Pos.X = e.Room.Width - b.Radius
			b.Vel.X = -math.Abs(b.Vel.X)
		}
		if b.Pos.Y < b.Radius {
			b.Pos.Y = b.Radius
			b.Vel.Y = math.Abs(b.Vel.Y)
		}
		if b.Pos.Y > e.Room.Height-b.Radius {
			b.Pos.Y = e.Room.Height - b.Radius
			b.Vel.Y = -math.Abs(b.Vel.Y)
		}
		if b.Pos == old {
			continue
		}
		if !moved {
			moved = true
			e.epoch++
		}
		e.logSwept(SweptRegion{Seg: Segment{A: old, B: b.Pos}, Radius: b.Radius})
	}
}

// blockageLossDB sums the blocker losses along one segment (interior-wall
// penetration is handled at path level by pathObstructionLossDB, which
// can see reflection vertices). A blocker whose position lies outside the
// segment's bounding box grown by Radius + boxSlack is farther than
// Radius from every point of the segment, so it is skipped on four
// compares; DistanceTo ≤ Radius decides every other blocker, and the sum
// keeps the same terms in the same order. The compares are written so a
// NaN coordinate or radius falls through to the exact test.
func (e *Environment) blockageLossDB(seg Segment) float64 {
	loX, hiX := min(seg.A.X, seg.B.X), max(seg.A.X, seg.B.X)
	loY, hiY := min(seg.A.Y, seg.B.Y), max(seg.A.Y, seg.B.Y)
	loss := 0.0
	for _, b := range e.Blockers {
		r := b.Radius + boxSlack
		if b.Pos.X < loX-r || b.Pos.X > hiX+r || b.Pos.Y < loY-r || b.Pos.Y > hiY+r {
			continue
		}
		if seg.DistanceTo(b.Pos) <= b.Radius {
			loss += b.LossDB
		}
	}
	return loss
}

// boxSlack grows blockageLossDB's bounding box past each blocker's
// Radius: far above the rounding of the exact distance test at any room
// scale the simulator runs (coordinates of 10⁴ m round at ~10⁻¹² m), and
// the same scale as the region mapper's corridor slack.
const boxSlack = 1e-6

// pathObstructionLossDB returns the total penetration loss a polyline
// path pays: blocker losses per leg, plus interior-wall losses wherever
// the path passes to the other side of a partition — either by a leg
// strictly crossing it, or by a reflection vertex on another wall that
// sits exactly on the partition (corner grazing) with its neighbours on
// opposite sides. A genuine reflection *off* the partition keeps both
// neighbours on the same side and is not charged.
func (e *Environment) pathObstructionLossDB(points []Vec2) float64 {
	loss := 0.0
	for i := 1; i < len(points); i++ {
		loss += e.blockageLossDB(Segment{points[i-1], points[i]})
	}
	const eps = 1e-9
	for _, w := range e.Room.Interior {
		d := w.Seg.B.Sub(w.Seg.A)
		side := func(p Vec2) float64 {
			return d.X*(p.Y-w.Seg.A.Y) - d.Y*(p.X-w.Seg.A.X)
		}
		for i := 1; i < len(points); i++ {
			a, b := points[i-1], points[i]
			sa, sb := side(a), side(b)
			if sa*sb < 0 {
				// Strict crossing: charge if it lands on the segment.
				if _, u, ok := (Segment{a, b}).Intersect(w.Seg); ok && u >= 0 && u <= 1 {
					loss += w.PenetrationLossDB
				}
			}
		}
		// Corner grazing: an interior vertex lying on the partition with
		// straddling neighbours passes through it.
		for i := 1; i < len(points)-1; i++ {
			v := points[i]
			if w.Seg.DistanceTo(v) > eps {
				continue
			}
			if side(points[i-1])*side(points[i+1]) < 0 {
				loss += w.PenetrationLossDB
			}
		}
	}
	return loss
}
