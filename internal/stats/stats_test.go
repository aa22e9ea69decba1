package stats

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"mmx/internal/par"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds agree on %d/1000 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestUniformMoments(t *testing.T) {
	r := NewRNG(7)
	n := 200000
	var s, s2 float64
	for i := 0; i < n; i++ {
		v := r.Uniform(2, 6)
		s += v
		s2 += v * v
	}
	mean := s / float64(n)
	variance := s2/float64(n) - mean*mean
	if math.Abs(mean-4) > 0.02 {
		t.Errorf("uniform mean = %g, want ≈4", mean)
	}
	if math.Abs(variance-16.0/12) > 0.05 {
		t.Errorf("uniform variance = %g, want ≈1.333", variance)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(99)
	n := 200000
	z := make([]float64, n)
	r.StdNormals(z)
	var s, s2 float64
	for _, v := range z {
		v = 3 + 2*v
		s += v
		s2 += v * v
	}
	mean := s / float64(n)
	variance := s2/float64(n) - mean*mean
	if math.Abs(mean-3) > 0.02 {
		t.Errorf("normal mean = %g, want ≈3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("normal variance = %g, want ≈4", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	var s float64
	for i := 0; i < n; i++ {
		s += r.Exp(2.5)
	}
	if got := s / float64(n); math.Abs(got-2.5) > 0.05 {
		t.Errorf("Exp mean = %g, want ≈2.5", got)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) only produced %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(8)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(10)
	a := r.Fork()
	b := r.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Errorf("forked streams agree on %d/100 draws", same)
	}
}

func TestQKnownValues(t *testing.T) {
	cases := []struct{ x, want, tol float64 }{
		{0, 0.5, 1e-12},
		{1, 0.15865525, 1e-7},
		{2, 0.02275013, 1e-7},
		{3, 1.3498980e-3, 1e-8},
		{6, 9.8658765e-10, 1e-14},
	}
	for _, c := range cases {
		if got := Q(c.x); math.Abs(got-c.want) > c.tol {
			t.Errorf("Q(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestQInvRoundtrip(t *testing.T) {
	for _, p := range []float64{0.4, 0.1, 1e-3, 1e-6, 1e-9} {
		x := QInv(p)
		if got := Q(x); math.Abs(got-p) > 1e-6*p+1e-15 {
			t.Errorf("Q(QInv(%g)) = %g", p, got)
		}
	}
	if !math.IsInf(QInv(0), 1) || !math.IsInf(QInv(1), -1) {
		t.Error("QInv boundary behaviour wrong")
	}
}

func TestQMonotoneProperty(t *testing.T) {
	f := func(a, b int16) bool {
		x1, x2 := float64(a)/1000, float64(b)/1000
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return Q(x1) >= Q(x2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Mean(xs) != 3 {
		t.Errorf("Mean = %g", Mean(xs))
	}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Error("Min/Max wrong")
	}
	if Median(xs) != 3 {
		t.Errorf("Median = %g", Median(xs))
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("P25 = %g", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("P100 = %g", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice conventions violated")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Errorf("interpolated P50 = %g, want 5", got)
	}
	if got := Percentile(xs, 90); math.Abs(got-9) > 1e-12 {
		t.Errorf("interpolated P90 = %g, want 9", got)
	}
}

// serialUint64 and serialStdNormal are the generator and the Gaussian
// draw as they were before the batch form (StdNormal, one deviate a call): one xoshiro step per call on
// the state in memory, and one polar point per pair straight off Float64,
// the second deviate cached. Their products are rounded as the kernels
// round them; amd64 never fuses, so there they are the old code's every
// bit.
func serialUint64(r *RNG) uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

func serialStdNormal(r *RNG) float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = float64(2*(float64(serialUint64(r)>>11)/(1<<53))) - 1
		v = float64(2*(float64(serialUint64(r)>>11)/(1<<53))) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// TestStdNormalsMatchesSerialDraws holds StdNormals to the serial draw
// bit for bit, and the generator's state after each call to the serial
// one's: one deviate at a time (a cached deviate carried in every other
// call), odd and even counts with and without a carry, lengths 0 and 1,
// and batches the lanes split, at GOMAXPROCS 1, 2 and 8.
func TestStdNormalsMatchesSerialDraws(t *testing.T) {
	r, o := NewRNG(3), NewRNG(3)
	var one [1]float64
	for i := 0; i < 10000; i++ {
		r.StdNormals(one[:])
		if want := serialStdNormal(o); math.Float64bits(one[0]) != math.Float64bits(want) {
			t.Fatalf("draw %d = %v, serial %v", i, one[0], want)
		}
		if *r != *o {
			t.Fatalf("state after draw %d differs from the serial draw's", i)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 2 * par.Grain, 4*par.Grain + 1, 9*par.Grain + 2} {
			for _, carry := range []bool{false, true} {
				seed := uint64(10*n + procs)
				r, o := NewRNG(seed), NewRNG(seed)
				if carry {
					r.StdNormals(one[:])
					serialStdNormal(o)
				}
				got := make([]float64, n)
				r.StdNormals(got)
				for i, z := range got {
					if want := serialStdNormal(o); math.Float64bits(z) != math.Float64bits(want) {
						t.Fatalf("GOMAXPROCS %d, n %d, carry %v: deviate %d = %v, serial %v", procs, n, carry, i, z, want)
					}
				}
				if *r != *o {
					t.Fatalf("GOMAXPROCS %d, n %d, carry %v: state after StdNormals differs from the serial draws'", procs, n, carry)
				}
			}
		}
	}
}
