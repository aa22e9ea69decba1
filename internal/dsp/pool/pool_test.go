package pool

import "testing"

func TestComplexRoundtrip(t *testing.T) {
	b := Complex(100)
	if len(b) != 100 {
		t.Fatalf("len = %d", len(b))
	}
	if cap(b) != 128 {
		t.Fatalf("cap = %d, want next power of two", cap(b))
	}
	for i := range b {
		b[i] = complex(float64(i), 0)
	}
	PutComplex(b)
	c := Complex(128)
	if cap(c) < 128 {
		t.Fatalf("cap = %d", cap(c))
	}
}

func TestZeroAndHuge(t *testing.T) {
	if b := Complex(0); len(b) != 0 {
		t.Fatal("zero-length")
	}
	PutComplex(nil) // must not panic
	huge := Complex((1 << maxClass) + 1)
	if len(huge) != (1<<maxClass)+1 {
		t.Fatal("huge request")
	}
	PutComplex(huge) // dropped, must not panic
}

func TestClassBoundaries(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1 << 10, 10}, {(1 << 10) + 1, 11},
	} {
		if got := class(tc.n); got != tc.want {
			t.Errorf("class(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	if class(1<<maxClass+1) != -1 {
		t.Error("oversize class should be -1")
	}
}

// TestPutClassDropsOversize pins where Put files a buffer, by capacity:
// the largest class it can fully serve, and nowhere once it is empty or
// too large for the top class — a buffer just above 2^maxClass elements
// must be dropped, not pinned in class maxClass.
func TestPutClassDropsOversize(t *testing.T) {
	for _, tc := range []struct{ cp, want int }{
		{0, -1}, {1, 0}, {2, 1}, {3, 1}, {100, 6}, {128, 7},
		{1 << maxClass, maxClass},
		{1<<maxClass - 1, maxClass - 1},
		{1<<maxClass + 1, -1},
		{1<<(maxClass+1) - 1, -1},
	} {
		if got := putClass(tc.cp); got != tc.want {
			t.Errorf("putClass(%d) = %d, want %d", tc.cp, got, tc.want)
		}
	}
}

// Steady-state Get/Put must not allocate beyond the first warm-up.
func TestAllocFree(t *testing.T) {
	b := Complex(4096)
	PutComplex(b)
	allocs := testing.AllocsPerRun(100, func() {
		x := Complex(4096)
		PutComplex(x)
	})
	// Both the payload array and its slice-header box are recycled, so a
	// warm roundtrip is allocation-free.
	if allocs != 0 {
		t.Errorf("allocs/op = %.1f, want 0", allocs)
	}
	PutFloat64(Float64(4096))
	if allocs := testing.AllocsPerRun(100, func() { PutFloat64(Float64(4096)) }); allocs != 0 {
		t.Errorf("float64 allocs/op = %.1f, want 0", allocs)
	}
}
