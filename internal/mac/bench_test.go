package mac

import (
	"encoding/binary"
	"testing"
)

// churnBands are the allocator-churn cases: the ISM band and the 60 GHz
// band of §7a, each filled to half and to full with 1 Mb/s channels
// (200 fit the ISM band, 5 600 the 60 GHz band).
var churnBands = []struct {
	name string
	band Band
	fill float64
}{
	{"ism24/fill=0.5", ISM24GHz(), 0.5},
	{"ism24/fill=1.0", ISM24GHz(), 1.0},
	{"60ghz/fill=0.5", Unlicensed60GHz(), 0.5},
	{"60ghz/fill=1.0", Unlicensed60GHz(), 1.0},
}

// allocatorChurn fills an allocator over band to the stated share and
// returns its i-th churn step: one Release + Allocate, cycling through
// the live IDs so the hole moves across the band.
func allocatorChurn(tb testing.TB, band Band, fill float64) func(i int) {
	al := NewAllocator(band)
	grants := make([]Assignment, int(fill*band.Width()/BandwidthForRate(1e6)))
	for id := range grants {
		a, err := al.Allocate(uint32(id), 1e6)
		if err != nil {
			tb.Fatal(err)
		}
		grants[id] = a
	}
	return func(i int) {
		id := i % len(grants)
		if err := al.Release(grants[id]); err != nil {
			tb.Fatal(err)
		}
		a, err := al.Allocate(uint32(id), 1e6)
		if err != nil {
			tb.Fatal(err)
		}
		grants[id] = a
	}
}

// BenchmarkAllocatorChurn is the rung of the allocator's write path.
// DESIGN.md §4 gives the cost of each operation on the ordered books.
func BenchmarkAllocatorChurn(b *testing.B) {
	for _, c := range churnBands {
		b.Run(c.name, func(b *testing.B) {
			step := allocatorChurn(b, c.band, c.fill)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}

// TestAllocatorChurnAllocs pins the ordered books' write path at zero
// allocations: a release and a re-grant shift slots in place.
func TestAllocatorChurnAllocs(t *testing.T) {
	for _, c := range churnBands {
		step, i := allocatorChurn(t, c.band, c.fill), 0
		if allocs := testing.AllocsPerRun(500, func() { step(i); i++ }); allocs != 0 {
			t.Errorf("%s: churn step allocates %v times, want 0", c.name, allocs)
		}
	}
}

// controllerChurn is the same write path one layer up: over 100 standing
// 1 Mb/s leases, its i-th step is one join and one release through
// HandleAtAppend with a reused reply buffer, the node ID cycling so the
// duplicate-suppression and lease records turn over as they do under
// ctl-churn.
func controllerChurn(tb testing.TB) func(i int) {
	c := NewController(ISM24GHz())
	var dst []byte
	handle := func(raw []byte) {
		out, err := c.HandleAtAppend(dst[:0], raw, 0)
		if err != nil {
			tb.Fatal(err)
		}
		dst = out
	}
	for id := uint32(0); id < 100; id++ {
		handle(JoinRequest{NodeID: id, Seq: 1, DemandBps: 1e6}.AppendTo(nil))
	}
	join := JoinRequest{Seq: 1, DemandBps: 1e6}.AppendTo(nil)
	release := ReleaseMsg{Seq: 2}.AppendTo(nil)
	return func(i int) {
		id := uint32(1000 + i%256)
		binary.LittleEndian.PutUint32(join[1:], id)
		binary.LittleEndian.PutUint32(release[1:], id)
		handle(join)
		handle(release)
	}
}

func BenchmarkControllerChurn(b *testing.B) {
	step := controllerChurn(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// TestControllerChurnAllocs pins a join+release pair at one allocation:
// the joiner's record. Grant, reply encode and release reuse what exists.
func TestControllerChurnAllocs(t *testing.T) {
	step, i := controllerChurn(t), 0
	if allocs := testing.AllocsPerRun(1000, func() { step(i); i++ }); allocs != 1 {
		t.Errorf("join+release allocates %v times, want 1", allocs)
	}
}
