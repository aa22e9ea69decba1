// Package channel models indoor mmWave propagation for the mmX simulator:
// a 2-D room with reflecting walls (image method, up to second order),
// human blockers that attenuate any path crossing them, and per-beam
// complex channel gains that combine the transmit beam pattern, path
// losses, reflection and blockage losses, and carrier phase. The model
// follows the paper's §6.1 loss classes: NLoS reflections cost 10–20 dB
// over LoS, and a blocked path costs another 10–15 dB.
package channel

import "math"

// Vec2 is a point or direction in the room plane (meters).
type Vec2 struct{ X, Y float64 }

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v − w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product v·w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Len returns |v|.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the distance between two points.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Len() }

// Angle returns the direction of v in radians (atan2 convention).
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Segment is a directed line segment from A to B.
type Segment struct{ A, B Vec2 }

// PointAt returns A + t·(B−A).
func (s Segment) PointAt(t float64) Vec2 {
	return s.A.Add(s.B.Sub(s.A).Scale(t))
}

// DistanceTo returns the minimum distance from point p to the segment.
func (s Segment) DistanceTo(p Vec2) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return s.A.Dist(p)
	}
	t := p.Sub(s.A).Dot(d) / l2
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return s.PointAt(t).Dist(p)
}

// Intersect returns the parameter t along s where it crosses the infinite
// line through o, and the parameter u along o, solving
// s.A + t·(s.B−s.A) = o.A + u·(o.B−o.A). ok is false for parallel lines.
func (s Segment) Intersect(o Segment) (t, u float64, ok bool) {
	r := s.B.Sub(s.A)
	q := o.B.Sub(o.A)
	denom := r.X*q.Y - r.Y*q.X
	if math.Abs(denom) < 1e-15 {
		return 0, 0, false
	}
	diff := o.A.Sub(s.A)
	t = (diff.X*q.Y - diff.Y*q.X) / denom
	u = (diff.X*r.Y - diff.Y*r.X) / denom
	return t, u, true
}

// MirrorAcross reflects point p across the infinite line through the
// segment.
func (s Segment) MirrorAcross(p Vec2) Vec2 {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return p
	}
	t := p.Sub(s.A).Dot(d) / l2
	foot := s.PointAt(t)
	return foot.Add(foot.Sub(p))
}

// Pose is a placed, oriented antenna: position in the room plane, the
// azimuth (radians) its boresight points toward, and its height above the
// reference plane. Propagation geometry is 2.5-D: rays trace in the plane
// and the height difference adds path length and an elevation-pattern
// factor (the paper's nodes "work at different height with respect to the
// AP" thanks to the 65° elevation beamwidth, §9.1).
type Pose struct {
	Pos Vec2
	// Orientation is the boresight azimuth in room coordinates.
	Orientation float64
	// Height is the antenna's height above the reference plane (m).
	Height float64
}

// AngleTo returns the azimuth of the direction from the pose toward p,
// relative to the pose's boresight (0 = straight ahead), wrapped to
// (−π, π].
func (p Pose) AngleTo(target Vec2) float64 {
	abs := target.Sub(p.Pos).Angle()
	return wrap(abs - p.Orientation)
}

func wrap(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
