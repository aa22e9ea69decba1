package antenna

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"mmx/internal/units"
)

func TestIsotropic(t *testing.T) {
	var iso Isotropic
	for _, th := range []float64{0, 1, -2, math.Pi} {
		if iso.Field(th) != 1 {
			t.Errorf("Isotropic.Field(%g) != 1", th)
		}
	}
}

func TestPatchPattern(t *testing.T) {
	p := DefaultPatch()
	if f := cmplx.Abs(p.Field(0)); f != 1 {
		t.Errorf("patch boresight field = %g", f)
	}
	// Monotone decrease toward ±90° until the backlobe floor.
	if cmplx.Abs(p.Field(0.5)) <= cmplx.Abs(p.Field(1.2)) {
		t.Error("patch field should fall off with angle")
	}
	// Behind the element only the back lobe remains.
	if f := cmplx.Abs(p.Field(math.Pi)); f != p.BackLobe {
		t.Errorf("patch back field = %g, want %g", f, p.BackLobe)
	}
	// Q<=0 falls back to 1.
	bad := Patch{Q: -1, BackLobe: 0}
	if f := cmplx.Abs(bad.Field(1)); math.Abs(f-math.Cos(1)) > 1e-12 {
		t.Errorf("Q<=0 fallback broken: %g", f)
	}
}

// TestPatchSquareMatchesPow pins Patch.Field's Q = 2 shortcut, c*c, to
// the math.Pow(c, 2) it replaced, bit for bit: on a dense sweep, at the
// float64 neighbours of ±π/2 (the smallest cosines a direction gives)
// and on seeded random directions, large ones included.
func TestPatchSquareMatchesPow(t *testing.T) {
	p := Patch{Q: 2} // no back-lobe floor: every positive cosine is compared
	thetas := []float64{0, math.Pi / 2, -math.Pi / 2}
	for _, edge := range []float64{math.Pi / 2, -math.Pi / 2} {
		th := edge
		for i := 0; i < 64; i++ {
			thetas = append(thetas, th, math.Nextafter(edge, 0))
			th = math.Nextafter(th, 0)
		}
	}
	for i := 0; i <= 100000; i++ {
		thetas = append(thetas, -math.Pi+2*math.Pi*float64(i)/100000)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		thetas = append(thetas, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(7))))
	}
	compared := 0
	for _, th := range thetas {
		c := math.Cos(th)
		if c <= 0 {
			continue
		}
		compared++
		if got, want := real(p.Field(th)), math.Pow(c, 2); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("θ=%v: Field = %v, Pow(cos θ, 2) = %v", th, got, want)
		}
	}
	if compared < 100000 {
		t.Fatalf("only %d directions had a positive cosine", compared)
	}
}

func TestCosPowerHPBW(t *testing.T) {
	hpbw := units.Deg2Rad(62)
	e := NewCosPower(hpbw)
	// At half the HPBW the power should be exactly 3 dB down.
	f := cmplx.Abs(e.Field(hpbw / 2))
	if math.Abs(20*math.Log10(f)-(-3.0103)) > 0.01 {
		t.Errorf("CosPower at HPBW/2 = %.3f dB, want -3.01", 20*math.Log10(f))
	}
	if cmplx.Abs(e.Field(0)) != 1 {
		t.Error("CosPower boresight != 1")
	}
	// Degenerate HPBW falls back to a sane default.
	d := NewCosPower(0)
	if cmplx.Abs(d.Field(0)) != 1 {
		t.Error("degenerate CosPower broken")
	}
}

func TestULASteering(t *testing.T) {
	u := NewULA(Isotropic{}, 8, 0.5)
	target := units.Deg2Rad(25)
	u.SteerTo(target)
	// After steering, the array factor magnitude at the target should be
	// the full coherent sum (8).
	if af := cmplx.Abs(u.ArrayFactor(target)); math.Abs(af-8) > 1e-9 {
		t.Errorf("steered AF = %g, want 8", af)
	}
	// And the normalized field is 1 there.
	if f := cmplx.Abs(u.Field(target)); math.Abs(f-1) > 1e-9 {
		t.Errorf("steered field = %g, want 1", f)
	}
	// Off-target it must be below the peak.
	if cmplx.Abs(u.Field(target+0.6)) >= 0.9 {
		t.Error("steered beam not directive")
	}
}

func TestULAFieldBoundedProperty(t *testing.T) {
	u := NewNodeBeam1()
	f := func(x int16) bool {
		th := float64(x) / 10000 * math.Pi
		return cmplx.Abs(u.Field(th)) <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroWeightArray(t *testing.T) {
	u := NewULA(Isotropic{}, 2, 0.5)
	u.Weights[0], u.Weights[1] = 0, 0
	if u.Field(0.3) != 0 {
		t.Error("zero-weight array should have zero field")
	}
}

func TestBeam1Shape(t *testing.T) {
	nb := NewNodeBeams()
	// Peak at broadside.
	peaks := FindPeaks(nb.Beam1, 4096, 0.5)
	foundBroadside := false
	for _, p := range peaks {
		if math.Abs(p) < units.Deg2Rad(2) {
			foundBroadside = true
		}
	}
	if !foundBroadside {
		t.Errorf("Beam 1 peaks = %v (deg %v), want one at 0°", peaks, degs(peaks))
	}
	// Null at ±30°.
	for _, th := range []float64{units.Deg2Rad(30), units.Deg2Rad(-30)} {
		if d := NullDepthAt(nb.Beam1, th, 4096); d < 15 {
			t.Errorf("Beam 1 null depth at %0.f° = %.1f dB, want >15", units.Rad2Deg(th), d)
		}
	}
	// Peak gain calibrated.
	if g := GainDB(nb.Beam1, 0); math.Abs(g-NodePeakGainDBi) > 0.1 {
		t.Errorf("Beam 1 peak gain = %.2f dBi", g)
	}
}

func TestBeam0Shape(t *testing.T) {
	nb := NewNodeBeams()
	// Null at broadside.
	if d := NullDepthAt(nb.Beam0, 0, 4096); d < 15 {
		t.Errorf("Beam 0 broadside null depth = %.1f dB", d)
	}
	// Peaks near ±30°.
	peaks := FindPeaks(nb.Beam0, 4096, 1)
	var pos, neg bool
	for _, p := range peaks {
		deg := units.Rad2Deg(p)
		if deg > 20 && deg < 40 {
			pos = true
		}
		if deg < -20 && deg > -40 {
			neg = true
		}
	}
	if !pos || !neg {
		t.Errorf("Beam 0 peaks at %v°, want ≈±30°", degs(peaks))
	}
}

func degs(rads []float64) []float64 {
	out := make([]float64, len(rads))
	for i, r := range rads {
		out[i] = units.Rad2Deg(r)
	}
	return out
}

func TestBeamOrthogonality(t *testing.T) {
	nb := NewNodeBeams()
	if o := Orthogonality(nb.Beam0, nb.Beam1); o < 10 {
		t.Errorf("mmX beam orthogonality = %.1f dB, want >10", o)
	}
	non := NewNonOrthogonalBeams()
	if o := Orthogonality(non.Beam0, non.Beam1); o > 6 {
		t.Errorf("non-orthogonal strawman scores %.1f dB, should be small", o)
	}
}

func TestBeam1HPBW(t *testing.T) {
	nb := NewNodeBeams()
	w := units.Rad2Deg(HalfPowerBeamwidth(nb.Beam1, 0))
	// The λ-spaced 2-element array gives ≈25-35°; the paper reports 40°
	// for the fabricated patches. Shape (a few tens of degrees) is what
	// matters.
	if w < 15 || w > 50 {
		t.Errorf("Beam 1 HPBW = %.1f°, want 15-50°", w)
	}
}

func TestAPAntenna(t *testing.T) {
	ap := NewAPAntenna()
	if g := GainDB(ap, 0); math.Abs(g-APAntennaGainDBi) > 0.05 {
		t.Errorf("AP boresight gain = %.2f dBi, want %g", g, APAntennaGainDBi)
	}
	w := units.Rad2Deg(HalfPowerBeamwidth(ap, 0))
	if math.Abs(w-APAntennaHPBWDeg) > 2 {
		t.Errorf("AP HPBW = %.1f°, want ≈%g", w, APAntennaHPBWDeg)
	}
}

func TestPatternCut(t *testing.T) {
	nb := NewNodeBeams()
	th, g := PatternCut(nb.Beam1, 360)
	if len(th) != 360 || len(g) != 360 {
		t.Fatal("PatternCut length wrong")
	}
	if th[0] != -math.Pi {
		t.Errorf("first angle = %g", th[0])
	}
	// Max of the cut equals the calibrated peak gain.
	best := math.Inf(-1)
	for _, v := range g {
		if v > best {
			best = v
		}
	}
	if math.Abs(best-NodePeakGainDBi) > 0.2 {
		t.Errorf("pattern-cut max = %.2f dBi", best)
	}
}

func TestGainDBNeverAboveCalibratedPeakProperty(t *testing.T) {
	nb := NewNodeBeams()
	f := func(x int16) bool {
		th := float64(x) / 32768 * math.Pi
		return GainDB(nb.Beam0, th) <= NodePeakGainDBi+1e-6 &&
			GainDB(nb.Beam1, th) <= NodePeakGainDBi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHalfPowerBeamwidthDegenerate(t *testing.T) {
	// A pattern that is zero everywhere reports zero width.
	z := FixedBeam{Source: zeroSource{}, PeakDBi: 0}
	if HalfPowerBeamwidth(z, 0) != 0 {
		t.Error("zero pattern should have zero HPBW")
	}
}

type zeroSource struct{}

func (zeroSource) Field(theta float64) complex128 { return 0 }

// TestNewFixedBeamMatchesLiteral pins the constructor's stored amplitude
// to the per-call computation of a struct literal, bit for bit, for every
// builder's sources and gains — and checks that editing PeakDBi on a
// constructed beam is honoured, not answered from the stored amplitude.
func TestNewFixedBeamMatchesLiteral(t *testing.T) {
	literal := func(p Pattern) FixedBeam {
		fb := p.(FixedBeam)
		return FixedBeam{Source: fb.Source, PeakDBi: fb.PeakDBi}
	}
	built := map[string]Pattern{"ap": NewAPAntenna()}
	for name, nb := range map[string]NodeBeams{
		"node": NewNodeBeams(), "non-orthogonal": NewNonOrthogonalBeams(),
		"extended": NewExtendedNodeBeams(), "narrow8": NewNarrowNodeBeams(8),
	} {
		built[name+"/beam0"], built[name+"/beam1"] = nb.Beam0, nb.Beam1
	}
	const samples = 4096
	for name, p := range built {
		if p.(FixedBeam).amp == 0 {
			t.Errorf("%s: built without NewFixedBeam", name)
		}
		lit := literal(p)
		edited := p.(FixedBeam)
		edited.PeakDBi += 3
		editedLit := literal(edited)
		for k := 0; k < samples; k++ {
			th := -math.Pi + 2*math.Pi*float64(k)/samples
			if got, want := p.FieldGain(th), lit.FieldGain(th); got != want {
				t.Fatalf("%s at %g: constructed %v, literal %v", name, th, got, want)
			}
			if got, want := edited.FieldGain(th), editedLit.FieldGain(th); got != want {
				t.Fatalf("%s at %g after a PeakDBi edit: %v, literal %v", name, th, got, want)
			}
		}
	}
}

// TestNodeBeamsFieldGainsBitIdentical pins a prepared pair's FieldGains to the
// two per-beam FieldGain calls it replaces, bit for bit, on every pair the
// stack builds: the shared-array path (standard, non-orthogonal, narrow
// and a literal pair with no cached amplitude) and the fallback (the
// mirrored pair).
func TestNodeBeamsFieldGainsBitIdentical(t *testing.T) {
	pairs := map[string]NodeBeams{
		"node":           NewNodeBeams(),
		"non-orthogonal": NewNonOrthogonalBeams(),
		"narrow-4":       NewNarrowNodeBeams(4),
		"narrow-8":       NewNarrowNodeBeams(8),
		"extended":       NewExtendedNodeBeams(),
		"literal": {
			Beam0: FixedBeam{Source: NewNodeBeam0(), PeakDBi: NodePeakGainDBi},
			Beam1: FixedBeam{Source: NewNodeBeam1(), PeakDBi: NodePeakGainDBi},
		},
	}
	const n = 4096
	thetas := []float64{0, math.Pi / 2, -math.Pi / 2, math.Pi, -math.Pi}
	for i := 0; i <= n; i++ {
		thetas = append(thetas, -2*math.Pi+4*math.Pi*float64(i)/n)
	}
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
			math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for name, nb := range pairs {
		pair := nb.Prepare()
		for _, th := range thetas {
			g0, g1 := pair.FieldGains(th)
			w0, w1 := nb.Beam0.FieldGain(th), nb.Beam1.FieldGain(th)
			if !same(g0, w0) || !same(g1, w1) {
				t.Fatalf("%s at θ=%v: FieldGains = (%v, %v), FieldGain = (%v, %v)", name, th, g0, g1, w0, w1)
			}
		}
	}
}
