package mac

import (
	"math"
	"slices"
	"testing"

	"mmx/internal/stats"
)

// mixedAllocator fills the ISM band with demands of 1–60 Mb/s and releases
// a third of them again, so widths are unequal and grant order is not
// frequency order.
func mixedAllocator(t *testing.T) *Allocator {
	t.Helper()
	rng := stats.NewRNG(0xF4EE)
	al := NewAllocator(ISM24GHz())
	for id := uint32(0); id < 60; id++ {
		if _, err := al.Allocate(id, rng.Uniform(1e6, 60e6)); err != nil && err != ErrBandFull {
			t.Fatal(err)
		}
		if id%3 == 2 {
			al.Release(id - 2)
		}
	}
	if len(al.order) < 8 {
		t.Fatalf("only %d channels live", len(al.order))
	}
	return al
}

// TestFreeHzIsAFunctionOfTheBooks: FreeHz and Utilization add widths in
// frequency order, so two calls on the same books agree to the last bit.
// Summing in map-iteration order does not.
func TestFreeHzIsAFunctionOfTheBooks(t *testing.T) {
	al := mixedAllocator(t)
	used := 0.0
	for _, a := range al.Assignments() {
		used += a.WidthHz
	}
	wantFree := al.band.Width() - used
	wantUtil := 1 - wantFree/al.band.Width()
	for call := 0; call < 200; call++ {
		if got := al.FreeHz(); got != wantFree {
			t.Fatalf("call %d: FreeHz = %v, frequency-order sum %v", call, got, wantFree)
		}
		if got := al.Utilization(); got != wantUtil {
			t.Fatalf("call %d: Utilization = %v, want %v", call, got, wantUtil)
		}
	}
}

// TestValidateCatchesIndexDrift plants each way the ordered books can part
// from the node index — what an insert or a remove at the wrong slot
// leaves behind — and expects Validate, and AuditBooks through it, to
// refuse every one.
func TestValidateCatchesIndexDrift(t *testing.T) {
	corruptions := []struct {
		name  string
		plant func(al *Allocator)
	}{
		{"swapped neighbours", func(al *Allocator) {
			al.order[2], al.order[3] = al.order[3], al.order[2]
		}},
		{"stale entry left after Release", func(al *Allocator) {
			delete(al.byNode, al.order[1].NodeID)
		}},
		{"missing entry", func(al *Allocator) {
			al.order = slices.Delete(al.order, 4, 5)
		}},
		{"entry replaced by its neighbour", func(al *Allocator) {
			al.order[5] = al.order[4]
		}},
		{"entry that differs from the node index", func(al *Allocator) {
			al.order[0].FSKOffsetHz++
		}},
	}
	for _, c := range corruptions {
		ctl := NewController(ISM24GHz())
		ctl.Alloc = mixedAllocator(t)
		for _, a := range ctl.Alloc.order {
			ctl.lease(a.NodeID)
		}
		if err := ctl.AuditBooks(); err != nil {
			t.Fatalf("%s: books before the corruption: %v", c.name, err)
		}
		c.plant(ctl.Alloc)
		if err := ctl.Alloc.Validate(); err == nil {
			t.Errorf("%s: Validate passed", c.name)
		}
		if err := ctl.AuditBooks(); err == nil {
			t.Errorf("%s: AuditBooks passed", c.name)
		}
	}
}

// TestAllocateRefusesNonFiniteDemand: NaN slips past "<= 0", and a
// NaN-centered channel could be neither placed in nor found again by an
// ordered search, so Allocate itself refuses it (handleJoin only guards
// the wire).
func TestAllocateRefusesNonFiniteDemand(t *testing.T) {
	al := mixedAllocator(t)
	before := al.Assignments()
	for _, demand := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := al.Allocate(1000, demand); err != ErrBadDemand {
			t.Errorf("Allocate(%v) = %v, want ErrBadDemand", demand, err)
		}
	}
	if _, ok := al.Lookup(1000); ok || !slices.Equal(al.Assignments(), before) {
		t.Error("a refused demand changed the books")
	}
	if err := al.Validate(); err != nil {
		t.Error(err)
	}
}

// TestSubUlpChannelsKeepInsertionOrder: channels narrower than the ulp of
// their center can share it bit for bit. They keep insertion order, and
// Release takes out the node it was asked for, not the first on that
// center.
func TestSubUlpChannelsKeepInsertionOrder(t *testing.T) {
	al := NewAllocator(ISM24GHz())
	const center = 24.1e9
	al.Allocate(1, 10e6)
	for _, id := range []uint32{7, 5, 9} {
		if _, err := al.AllocateRegion(id, center, 1e-9); err != nil {
			t.Fatal(err)
		}
	}
	ids := func() (out []uint32) {
		for _, a := range al.Assignments() {
			out = append(out, a.NodeID)
		}
		return out
	}
	if got := ids(); !slices.Equal(got, []uint32{1, 7, 5, 9}) {
		t.Fatalf("order = %v", got)
	}
	for _, step := range []struct {
		release uint32
		want    []uint32
	}{{5, []uint32{1, 7, 9}}, {9, []uint32{1, 7}}, {7, []uint32{1}}} {
		if err := al.Release(step.release); err != nil {
			t.Fatal(err)
		}
		if got := ids(); !slices.Equal(got, step.want) {
			t.Fatalf("after Release(%d): %v, want %v", step.release, got, step.want)
		}
		if err := al.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
