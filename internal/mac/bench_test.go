package mac

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// BenchmarkAllocatorChurn is the rung of the allocator's write path: the
// band filled to the stated share with 1 Mb/s channels (200 fit the ISM
// band, 5 600 the 60 GHz band of §7a), then one Release + Allocate per
// iteration, cycling through the live IDs so the hole moves across the
// band. Reported parent against change in DESIGN.md §18; not in a gated
// BENCH_* pattern.
func BenchmarkAllocatorChurn(b *testing.B) {
	bands := []struct {
		name string
		band Band
	}{{"ism24", ISM24GHz()}, {"60ghz", Unlicensed60GHz()}}
	for _, bb := range bands {
		for _, fill := range []float64{0.5, 1.0} {
			b.Run(fmt.Sprintf("%s/fill=%.1f", bb.name, fill), func(b *testing.B) {
				al := NewAllocator(bb.band)
				live := int(fill * bb.band.Width() / BandwidthForRate(1e6))
				for id := 0; id < live; id++ {
					if _, err := al.Allocate(uint32(id), 1e6); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					id := uint32(i % live)
					if err := al.Release(id); err != nil {
						b.Fatal(err)
					}
					if _, err := al.Allocate(id, 1e6); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkControllerChurn is the same write path one layer up: over 100
// standing 1 Mb/s leases, one join and one release per iteration through
// HandleAtAppend with a reused reply buffer, the node ID cycling so the
// duplicate-suppression and lease maps turn over as they do under
// ctl-churn.
func BenchmarkControllerChurn(b *testing.B) {
	c := NewController(ISM24GHz())
	var dst []byte
	handle := func(raw []byte) {
		out, err := c.HandleAtAppend(dst[:0], raw, 0)
		if err != nil {
			b.Fatal(err)
		}
		dst = out
	}
	for id := uint32(0); id < 100; id++ {
		handle(JoinRequest{NodeID: id, Seq: 1, DemandBps: 1e6}.AppendTo(nil))
	}
	join := JoinRequest{Seq: 1, DemandBps: 1e6}.AppendTo(nil)
	release := ReleaseMsg{Seq: 2}.AppendTo(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint32(1000 + i%256)
		binary.LittleEndian.PutUint32(join[1:], id)
		binary.LittleEndian.PutUint32(release[1:], id)
		handle(join)
		handle(release)
	}
}
