package stats

import (
	"math"
	"testing"
	"testing/quick"
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
	var s, s2 float64
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
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
