package tma

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"mmx/internal/stats"
)

func TestSequentialScheduleCoverage(t *testing.T) {
	s := Sequential(8)
	// At every instant exactly one element conducts.
	for _, frac := range []float64{0, 0.01, 0.124, 0.5, 0.874, 0.999} {
		on := 0
		for n := 0; n < 8; n++ {
			if s.Gate(n, frac) > 0 {
				on++
			}
		}
		if on != 1 {
			t.Errorf("frac %g: %d elements on, want 1", frac, on)
		}
	}
}

func TestGateWrapAround(t *testing.T) {
	s := Schedule{On: []float64{0.9}, Width: []float64{0.2}} // wraps past 1
	if s.Gate(0, 0.95) != 1 {
		t.Error("should conduct at 0.95")
	}
	if s.Gate(0, 0.05) != 1 {
		t.Error("should conduct at 0.05 (wrapped)")
	}
	if s.Gate(0, 0.5) != 0 {
		t.Error("should be off at 0.5")
	}
	// Gate normalizes out-of-range fractions.
	if s.Gate(0, 1.95) != 1 {
		t.Error("frac > 1 should wrap")
	}
}

func TestCoefficientClosedFormMatchesNumeric(t *testing.T) {
	a := NewSDMArray(8, 1e6)
	const steps = 200000
	for _, m := range []int{0, 1, 3, -2} {
		for _, n := range []int{0, 3, 7} {
			// Numeric Fourier integral of the gate.
			var acc complex128
			for k := 0; k < steps; k++ {
				frac := (float64(k) + 0.5) / steps
				if a.Schedule.Gate(n, frac) > 0 {
					acc += cmplx.Rect(1, -2*math.Pi*float64(m)*frac)
				}
			}
			acc /= complex(steps, 0)
			got := a.Coefficient(m, n)
			if cmplx.Abs(got-acc) > 1e-4 {
				t.Errorf("a[%d][%d] = %v, numeric %v", m, n, got, acc)
			}
		}
	}
}

func TestCoefficientZeroWidth(t *testing.T) {
	a := &Array{N: 1, SpacingWl: 0.5, SwitchRateHz: 1e6,
		Schedule: Schedule{On: []float64{0}, Width: []float64{0}}}
	if a.Coefficient(1, 0) != 0 {
		t.Error("zero-width window should have zero coefficients")
	}
}

func TestAlwaysOnOnlyDCHarmonic(t *testing.T) {
	// Every element conducting continuously: the TMA reduces to a plain
	// array and only harmonic 0 exists.
	allOn := Schedule{On: []float64{0, 0, 0, 0}, Width: []float64{1, 1, 1, 1}}
	a := &Array{N: 4, SpacingWl: 0.5, SwitchRateHz: 1e6, Schedule: allOn}
	// Broadside, harmonic 0: full coherent sum.
	if g := cmplx.Abs(a.HarmonicGain(0, 0)); math.Abs(g-4) > 1e-9 {
		t.Errorf("harmonic 0 gain = %g, want 4", g)
	}
	for m := 1; m <= 3; m++ {
		if g := cmplx.Abs(a.HarmonicGain(m, 0.3)); g > 1e-9 {
			t.Errorf("always-on harmonic %d gain = %g, want 0", m, g)
		}
	}
}

// gridAngle returns the arrival angle that maps exactly onto harmonic m
// for an N-element λ/2 sequential TMA: sinθ = 2m/N.
func gridAngle(m, n int) float64 {
	return math.Asin(2 * float64(m) / float64(n))
}

func TestAngleToHarmonicMapping(t *testing.T) {
	a := NewSDMArray(8, 1e6)
	for m := -3; m <= 3; m++ {
		th := gridAngle(m, 8)
		if got := a.BestHarmonic(th); got != m {
			t.Errorf("BestHarmonic(%.1f°) = %d, want %d",
				th*180/math.Pi, got, m)
		}
	}
}

func TestGridOrthogonality(t *testing.T) {
	// At a grid angle the non-matching harmonics are exact nulls — the
	// property that makes SDM separation clean.
	a := NewSDMArray(8, 1e6)
	th := gridAngle(1, 8)
	own := cmplx.Abs(a.HarmonicGain(1, th))
	if own < 0.9 { // sinc(1/8)·N/N ≈ 0.97 relative... absolute ≈ 7.8
		t.Errorf("own-harmonic gain = %g", own)
	}
	for m := -4; m <= 4; m++ {
		if m == 1 {
			continue
		}
		if g := cmplx.Abs(a.HarmonicGain(m, th)); g > 1e-9 {
			t.Errorf("harmonic %d at grid angle = %g, want 0", m, g)
		}
	}
}

func TestSidebandSuppression(t *testing.T) {
	a := NewSDMArray(8, 1e6)
	// At grid angles suppression is (numerically) enormous.
	if s := a.SidebandSuppressionDB(gridAngle(2, 8)); s < 60 {
		t.Errorf("grid-angle suppression = %.1f dB", s)
	}
	// At an off-grid angle it is finite but still real separation.
	if s := a.SidebandSuppressionDB(0.2); s < 3 {
		t.Errorf("off-grid suppression = %.1f dB, want >3", s)
	}
}

func TestMixEmptyAndLengths(t *testing.T) {
	a := NewSDMArray(4, 1e6)
	if a.MixInto(nil, nil, 64e6) != nil {
		t.Error("no sources should yield nil")
	}
	y := a.MixInto(nil, []Source{
		{Theta: 0, Baseband: make([]complex128, 100)},
		{Theta: 0.1, Baseband: make([]complex128, 60)},
	}, 64e6)
	if len(y) != 60 {
		t.Errorf("output length = %d, want shortest (60)", len(y))
	}
}

func TestSDMSeparationTwoSources(t *testing.T) {
	// Two co-channel constant-envelope transmitters at grid angles for
	// harmonics +1 and −2; the filterbank must separate them.
	const n = 8
	fp := 1e6
	fs := 64 * fp
	a := NewSDMArray(n, fp)
	nSamp := 4096
	amp1, amp2 := 1.0, 0.7
	mk := func(amp float64) []complex128 {
		s := make([]complex128, nSamp)
		for i := range s {
			s[i] = complex(amp, 0)
		}
		return s
	}
	src := []Source{
		{Theta: gridAngle(1, n), Baseband: mk(amp1)},
		{Theta: gridAngle(-2, n), Baseband: mk(amp2)},
	}
	y := a.MixInto(nil, src, fs)

	meanAbs := func(x []complex128) float64 {
		// Skip the integrate-and-dump transient.
		s := 0.0
		cnt := 0
		for i := 256; i < len(x); i++ {
			s += cmplx.Abs(x[i])
			cnt++
		}
		return s / float64(cnt)
	}
	own1 := meanAbs(a.ExtractInto(nil, y, 1, fs))
	own2 := meanAbs(a.ExtractInto(nil, y, -2, fs))
	cross := meanAbs(a.ExtractInto(nil, y, 3, fs))

	want1 := amp1 * cmplx.Abs(a.HarmonicGain(1, src[0].Theta))
	want2 := amp2 * cmplx.Abs(a.HarmonicGain(-2, src[1].Theta))
	if math.Abs(own1-want1)/want1 > 0.15 {
		t.Errorf("harmonic +1 recovered %.3f, want %.3f", own1, want1)
	}
	if math.Abs(own2-want2)/want2 > 0.15 {
		t.Errorf("harmonic −2 recovered %.3f, want %.3f", own2, want2)
	}
	if cross > 0.1*own2 {
		t.Errorf("crosstalk harmonic = %.3f vs own %.3f", cross, own2)
	}
}

func TestSDMSeparationCarriesModulation(t *testing.T) {
	// One source OOK-modulates; the other is constant. After separation
	// the OOK source's harmonic shows both levels, the other stays flat.
	const n = 8
	fp := 1e6
	fs := 64 * fp
	a := NewSDMArray(n, fp)
	period := 1024
	nSamp := 8 * period
	ook := make([]complex128, nSamp)
	for i := range ook {
		if (i/period)%2 == 0 {
			ook[i] = 1
		}
	}
	flat := make([]complex128, nSamp)
	for i := range flat {
		flat[i] = 1
	}
	y := a.MixInto(nil, []Source{
		{Theta: gridAngle(1, n), Baseband: ook},
		{Theta: gridAngle(-1, n), Baseband: flat},
	}, fs)
	rec := a.ExtractInto(nil, y, 1, fs)
	// Compare mid-symbol samples of an on and an off period.
	on := cmplx.Abs(rec[period/2+2*period])
	off := cmplx.Abs(rec[period/2+3*period])
	if on < 5*off+0.01 {
		t.Errorf("OOK not preserved through TMA: on=%.3f off=%.3f", on, off)
	}
	recFlat := a.ExtractInto(nil, y, -1, fs)
	a1 := cmplx.Abs(recFlat[period/2+2*period])
	a2 := cmplx.Abs(recFlat[period/2+3*period])
	if math.Abs(a1-a2) > 0.1*a1 {
		t.Errorf("flat source fluctuates: %.3f vs %.3f", a1, a2)
	}
}

func TestHarmonicGainBoundedProperty(t *testing.T) {
	a := NewSDMArray(8, 1e6)
	f := func(m int8, x int16) bool {
		th := float64(x) / 32768 * math.Pi / 2
		g := cmplx.Abs(a.HarmonicGain(int(m%5), th))
		return g <= float64(a.N)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxHarmonic(t *testing.T) {
	if NewSDMArray(8, 1e6).MaxHarmonic() != 4 {
		t.Error("MaxHarmonic wrong")
	}
}

func TestCoefficientParsevalProperty(t *testing.T) {
	// The gate is a rectangular window of width w, so its Fourier energy
	// Σ_m |a_mn|² equals w (Parseval). The partial sum over |m| ≤ 400
	// captures almost all of it.
	a := NewSDMArray(8, 1e6)
	f := func(elem uint8) bool {
		n := int(elem) % a.N
		sum := 0.0
		for m := -400; m <= 400; m++ {
			c := a.Coefficient(m, n)
			sum += real(c)*real(c) + imag(c)*imag(c)
		}
		w := a.Schedule.Width[n]
		return math.Abs(sum-w) < 0.01*w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestMixLinearityProperty(t *testing.T) {
	// The TMA is linear: Mix(a+b) == Mix(a) + Mix(b) for co-located
	// sources.
	a := NewSDMArray(4, 1e6)
	rng := stats.NewRNG(5)
	n := 256
	s1 := make([]complex128, n)
	s2 := make([]complex128, n)
	sum := make([]complex128, n)
	z := make([]float64, 4*n)
	rng.StdNormals(z)
	for i := 0; i < n; i++ {
		s1[i] = complex(z[4*i], z[4*i+1])
		s2[i] = complex(z[4*i+2], z[4*i+3])
		sum[i] = s1[i] + s2[i]
	}
	th := 0.3
	y1 := a.MixInto(nil, []Source{{Theta: th, Baseband: s1}}, 16e6)
	y2 := a.MixInto(nil, []Source{{Theta: th, Baseband: s2}}, 16e6)
	ys := a.MixInto(nil, []Source{{Theta: th, Baseband: sum}}, 16e6)
	for i := range ys {
		if cmplx.Abs(ys[i]-y1[i]-y2[i]) > 1e-9 {
			t.Fatalf("nonlinear at %d", i)
		}
	}
}

// closedFormGain is Eq. 4 with Eq. 3 written out — a_mn =
// w·sinc(m·w)·e^{−jπm(2o+w)} evaluated from the schedule for every term
// and summed in element order. It reads nothing an Array stores besides
// its exported fields, so it is an oracle for the coefficient matrix
// rather than a second reader of it.
func closedFormGain(a *Array, m int, theta float64) complex128 {
	var g complex128
	phasePerElem := 2 * math.Pi * a.SpacingWl * math.Sin(theta)
	for n := 0; n < a.N; n++ {
		var c complex128
		if w, o := a.Schedule.Width[n], a.Schedule.On[n]; w > 0 {
			mag := w
			if x := float64(m) * w; x != 0 {
				mag = w * (math.Sin(math.Pi*x) / (math.Pi * x))
			}
			c = cmplx.Rect(1, -math.Pi*float64(m)*(2*o+w)) * complex(mag, 0)
		}
		g += c * cmplx.Rect(1, phasePerElem*float64(n))
	}
	return g
}

// oracleThetas is the angle set of the bit-identity tests: the two
// endfire angles, broadside, and 64 seeded draws in between.
func oracleThetas() []float64 {
	rng := stats.NewRNG(19)
	thetas := []float64{-math.Pi / 2, 0, math.Pi / 2}
	for i := 0; i < 64; i++ {
		thetas = append(thetas, rng.Uniform(-math.Pi/2, math.Pi/2))
	}
	return thetas
}

// TestGainTableMatchesHarmonicGain pins GainTable, GainTableInto,
// HarmonicGain and BestHarmonic bit for bit to the closed form, for
// arrays that carry NewSDMArray's coefficient matrix, arrays that never
// had one (struct literals), and arrays edited after construction, which
// must not be served the coefficients of the schedule they were built
// with.
func TestGainTableMatchesHarmonicGain(t *testing.T) {
	type variant struct {
		name string
		make func(n int, s Schedule) *Array
	}
	variants := []variant{
		{"constructed", func(n int, s Schedule) *Array {
			a := NewSDMArray(n, 1e6)
			if s.Width[0] != a.Schedule.Width[0] {
				return nil // NewSDMArray only builds the sequential schedule
			}
			return a
		}},
		{"literal", func(n int, s Schedule) *Array {
			return &Array{N: n, SpacingWl: 0.5, SwitchRateHz: 1e6, Schedule: s}
		}},
		{"schedule replaced", func(n int, s Schedule) *Array {
			a := NewSDMArray(n, 1e6)
			// A different schedule of the same shape: every window
			// shifted and narrowed (or the caller's, when it differs).
			if s.Width[0] == a.Schedule.Width[0] {
				s = Sequential(n)
				for i := range s.On {
					s.On[i] += 0.25 / float64(n)
					s.Width[i] *= 0.75
				}
			}
			a.Schedule = s
			return a
		}},
		{"schedule edited in place", func(n int, s Schedule) *Array {
			a := NewSDMArray(n, 1e6)
			a.Schedule.Width[n-1] *= 0.5
			return a
		}},
		{"N shrunk", func(n int, s Schedule) *Array {
			if n < 2 {
				return nil
			}
			a := NewSDMArray(n, 1e6)
			a.N = n / 2
			return a
		}},
	}
	thetas := oracleThetas()
	for _, n := range []int{1, 4, 8, 16} {
		allOn := Schedule{On: make([]float64, n), Width: make([]float64, n)}
		for i := range allOn.Width {
			allOn.Width[i] = 1
		}
		for sname, sched := range map[string]Schedule{"sequential": Sequential(n), "always-on": allOn} {
			for _, v := range variants {
				a := v.make(n, sched)
				if a == nil {
					continue
				}
				maxM := a.MaxHarmonic()
				var into []complex128
				for _, th := range thetas {
					gt := a.GainTable(th)
					if len(gt) != 2*maxM+1 {
						t.Fatalf("N=%d %s %s: table length = %d", n, sname, v.name, len(gt))
					}
					into = a.GainTableInto(into, th)
					best, bestMag := 0, -1.0
					for m := -maxM; m <= maxM; m++ {
						want := closedFormGain(a, m, th)
						// Bit-identical, not merely close: the coupling
						// caches and every fingerprint rely on it.
						if gt[m+maxM] != want || into[m+maxM] != want || a.HarmonicGain(m, th) != want {
							t.Fatalf("N=%d %s %s theta %g harmonic %d: table %v into %v direct %v, closed form %v",
								n, sname, v.name, th, m, gt[m+maxM], into[m+maxM], a.HarmonicGain(m, th), want)
						}
						if mag := cmplx.Abs(want); mag > bestMag {
							best, bestMag = m, mag
						}
					}
					if got := a.BestHarmonic(th); got != best || BestHarmonicOf(gt) != best {
						t.Fatalf("N=%d %s %s theta %g: BestHarmonic %d, BestHarmonicOf %d, closed form %d",
							n, sname, v.name, th, got, BestHarmonicOf(gt), best)
					}
					// Harmonics beyond the table are served by HarmonicGain
					// alone.
					if m := maxM + 3; a.HarmonicGain(m, th) != closedFormGain(a, m, th) {
						t.Fatalf("N=%d %s %s theta %g: harmonic %d off the closed form", n, sname, v.name, th, m)
					}
				}
			}
		}
	}
}

// TestGainTableIntoReusesStorage checks the append-style contract: a
// destination with room is written in place, stale contents and all, and
// the harmonic pick over a stack table allocates nothing.
func TestGainTableIntoReusesStorage(t *testing.T) {
	a := NewSDMArray(16, 1e6)
	dst := make([]complex128, 0, 2*a.MaxHarmonic()+1)
	first := a.GainTableInto(dst, 0.3)
	second := a.GainTableInto(first, -0.7)
	if &first[0] != &dst[:1][0] || &second[0] != &first[0] {
		t.Error("GainTableInto did not reuse dst's storage")
	}
	for m, g := range a.GainTable(-0.7) {
		if second[m] != g {
			t.Fatalf("reused table entry %d = %v, want %v", m, second[m], g)
		}
	}
	if n := testing.AllocsPerRun(100, func() { second = a.GainTableInto(second, 0.1) }); n != 0 {
		t.Errorf("GainTableInto into a sized buffer allocates %v times", n)
	}
	var sink int
	if n := testing.AllocsPerRun(100, func() { sink += a.BestHarmonic(0.1) }); n != 0 {
		t.Errorf("BestHarmonic allocates %v times", n)
	}
}
