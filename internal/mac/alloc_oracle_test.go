package mac

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"mmx/internal/stats"
)

// errRefAlreadyAllocated is the oracle's refusal of a second channel for
// one ID. The real allocator keeps no per-node index: that refusal is the
// controller's record's (TestControllerIdempotentJoin, FuzzControllerBooks).
var errRefAlreadyAllocated = errors.New("mac: node already holds a channel")

// refAllocator is the allocator as it stood before its books became an
// ordered slice (PR 20), kept verbatim as the oracle of
// TestAllocatorMatchesReference and FuzzAllocatorSequence: a map, a sorted
// view rebuilt and sort.Slice'd after every mutation, and a materialised
// gap list. It hands out non-overlapping FDM channels from a band, sized by
// each node's demand (§4: "the bandwidth of an allocated channel depends
// on the data rate requirement of the IoT node").
type refAllocator struct {
	band Band
	// byNode maps node ID → current assignment.
	byNode map[uint32]Assignment
	// FSKFraction sets each assignment's FSK offset as a fraction of its
	// channel width.
	FSKFraction float64
	// cache is the frequency-sorted view of byNode, rebuilt lazily after a
	// mutation. Once the band fills, every overflow join still probes
	// Allocate (ErrBandFull) and then reads Assignments to pick an SDM
	// share — two sorted views per join with no intervening mutation, so
	// caching turns a per-join O(k log k) sort into a map hit.
	cache   []Assignment
	cacheOK bool
}

// newRefAllocator creates an allocator over the band.
func newRefAllocator(band Band) *refAllocator {
	return &refAllocator{
		band:        band,
		byNode:      make(map[uint32]Assignment),
		FSKFraction: 0.05,
	}
}

// Allocate grants nodeID a channel wide enough for demandBps. It returns
// ErrBandFull when FDM is exhausted — the caller's cue to fall back to
// spatial reuse (SDM) on an existing channel.
func (al *refAllocator) Allocate(nodeID uint32, demandBps float64) (Assignment, error) {
	if demandBps <= 0 {
		return Assignment{}, ErrBadDemand
	}
	if _, ok := al.byNode[nodeID]; ok {
		return Assignment{}, errRefAlreadyAllocated
	}
	width := BandwidthForRate(demandBps)
	lo, ok := al.placeChannel(width)
	if !ok {
		return Assignment{}, ErrBandFull
	}
	asg := Assignment{
		NodeID:      nodeID,
		CenterHz:    lo + width/2,
		WidthHz:     width,
		FSKOffsetHz: width * al.FSKFraction,
	}
	al.byNode[nodeID] = asg
	al.cacheOK = false
	return asg, nil
}

// gap is a free span of spectrum.
type gap struct{ lo, hi float64 }

// freeGaps returns the free spans between assignments, low to high.
func (al *refAllocator) freeGaps() []gap {
	var gaps []gap
	cursor := al.band.LowHz
	for _, a := range al.sorted() {
		if a.Low() > cursor {
			gaps = append(gaps, gap{cursor, a.Low()})
		}
		if a.High() > cursor {
			cursor = a.High()
		}
	}
	if cursor < al.band.HighHz {
		gaps = append(gaps, gap{cursor, al.band.HighHz})
	}
	return gaps
}

// placeChannel picks the low edge of a new channel of the given width:
// the lowest gap that fits. ok is false when nothing fits.
func (al *refAllocator) placeChannel(width float64) (float64, bool) {
	for _, g := range al.freeGaps() {
		if g.hi-g.lo >= width {
			return g.lo, true
		}
	}
	return 0, false
}

// AllocateRegion grants nodeID the exact channel
// [centerHz−widthHz/2, centerHz+widthHz/2] — targeted placement used when
// promoting an SDM sharer to owner of the spectrum it already occupies,
// where the first-fit gap search of Allocate would move the channel.
// The region must lie inside the band and clear of every current
// assignment.
func (al *refAllocator) AllocateRegion(nodeID uint32, centerHz, widthHz float64) (Assignment, error) {
	if widthHz <= 0 {
		return Assignment{}, ErrBadDemand
	}
	if _, ok := al.byNode[nodeID]; ok {
		return Assignment{}, errRefAlreadyAllocated
	}
	lo, hi := centerHz-widthHz/2, centerHz+widthHz/2
	if !al.band.Contains(lo, hi) {
		return Assignment{}, ErrRegionBusy
	}
	for _, a := range al.byNode {
		if lo < a.High() && a.Low() < hi {
			return Assignment{}, ErrRegionBusy
		}
	}
	asg := Assignment{
		NodeID:      nodeID,
		CenterHz:    centerHz,
		WidthHz:     widthHz,
		FSKOffsetHz: widthHz * al.FSKFraction,
	}
	al.byNode[nodeID] = asg
	al.cacheOK = false
	return asg, nil
}

// Release frees nodeID's channel.
func (al *refAllocator) Release(nodeID uint32) error {
	if _, ok := al.byNode[nodeID]; !ok {
		return ErrNotAllocated
	}
	delete(al.byNode, nodeID)
	al.cacheOK = false
	return nil
}

// Lookup returns a node's current assignment.
func (al *refAllocator) Lookup(nodeID uint32) (Assignment, bool) {
	a, ok := al.byNode[nodeID]
	return a, ok
}

// Assignments returns all live assignments ordered by frequency. The
// returned slice is the caller's to keep.
func (al *refAllocator) Assignments() []Assignment {
	return append([]Assignment(nil), al.sorted()...)
}

// Validate checks the allocator's invariants: every assignment inside the
// band and no two overlapping. It returns nil when consistent (used by
// property tests).
func (al *refAllocator) Validate() error {
	sorted := al.sorted()
	for i, a := range sorted {
		if !al.band.Contains(a.Low(), a.High()) {
			return fmt.Errorf("assignment %d outside band", a.NodeID)
		}
		if i > 0 && a.Low() < sorted[i-1].High()-1e-6 {
			return fmt.Errorf("assignments %d and %d overlap",
				sorted[i-1].NodeID, a.NodeID)
		}
	}
	return nil
}

// sorted returns the cached frequency-sorted assignment list. The slice
// is shared across calls until the next mutation — internal callers must
// not modify it (Assignments hands external callers a copy).
func (al *refAllocator) sorted() []Assignment {
	if !al.cacheOK {
		al.cache = al.cache[:0]
		for _, a := range al.byNode {
			al.cache = append(al.cache, a)
		}
		sort.Slice(al.cache, func(i, j int) bool { return al.cache[i].CenterHz < al.cache[j].CenterHz })
		al.cacheOK = true
	}
	return al.cache
}

// allocPair runs one op sequence through the allocator and the oracle and
// compares everything observable after every op.
type allocPair struct {
	t   testing.TB
	al  *Allocator
	ref *refAllocator
	n   int // ops applied
	// live lists the IDs holding a channel and freed is the last channel
	// released: what lets bytes name "a live node", "the region just
	// freed" and "the edge of a standing channel".
	live  []uint32
	freed Assignment
	// ties counts ops that left two channels on one center.
	ties int
}

// newAllocPair picks the band from cfg: the ISM band or one sixteenth of
// it (a reuse slice: 12 narrow channels, edges that are not round
// numbers). Bit 0 selected the placement policy while there were two; it
// is ignored, so corpus entries recorded then still run.
func newAllocPair(t testing.TB, cfg byte) *allocPair {
	band := ISM24GHz()
	if cfg&2 != 0 {
		band = band.Partition(16)[5]
	}
	return &allocPair{t: t, al: NewAllocator(band), ref: newRefAllocator(band)}
}

// step decodes one op from four bytes and applies it to both sides.
// Half the kinds allocate (demands 0.1–60 Mb/s on a log scale, now and
// then zero, negative, or for a node that already holds a channel), a
// quarter release (a live node or whichever ID the bytes name), and the
// rest place regions: on the channel just freed (whole or narrower), over
// a standing one, across the band's edges, anywhere — and with widths from
// 1 Hz down to 1e-9 Hz, below the 3.8 µHz ulp of a 24 GHz center, on a
// freed center, on a standing channel's edge and center, anywhere.
func (d *allocPair) step(kind, id, p, q byte) {
	band := d.al.band
	node := uint32(id)
	frac := float64(p) / 255
	liveID := func(k byte) (uint32, bool) {
		if len(d.live) == 0 {
			return 0, false
		}
		return d.live[int(k)%len(d.live)], true
	}
	host := Assignment{CenterHz: band.LowHz + frac*band.Width(), WidthHz: 1e6}
	if h, ok := liveID(p); ok {
		host, _ = d.ref.Lookup(h)
	}
	switch kind % 8 {
	case 0, 1, 2, 3:
		demand := 0.1e6 * math.Pow(600, frac)
		switch q {
		case 0:
			demand = 0
		case 1:
			demand = -demand
		case 2:
			if h, ok := liveID(id); ok {
				node = h
			}
		}
		d.allocate(node, demand)
	case 4, 5:
		if h, ok := liveID(id); ok && q&1 == 0 {
			node = h
		}
		d.release(node)
	case 6:
		switch q % 4 {
		case 0:
			d.region(node, d.freed.CenterHz, d.freed.WidthHz*(float64(p)+1)/256)
		case 1:
			d.region(node, host.CenterHz+(2*frac-1)*host.WidthHz, host.WidthHz)
		case 2:
			d.region(node, band.LowHz+(1.2*frac-0.1)*band.Width(), band.Width()/16)
		default:
			d.region(node, band.LowHz+frac*band.Width(), 0.25e6*float64(1+q/4))
		}
	default:
		width := math.Pow(10, -float64(q%10))
		switch q / 10 % 4 {
		case 0:
			d.region(node, d.freed.CenterHz, width)
		case 1:
			d.region(node, host.High(), width)
		case 2:
			d.region(node, host.CenterHz, width)
		default:
			d.region(node, band.LowHz+frac*band.Width(), width)
		}
	}
}

func (d *allocPair) allocate(id uint32, demand float64) {
	op := fmt.Sprintf("Allocate(%d, %v)", id, demand)
	want, werr := d.ref.Allocate(id, demand)
	if slices.Contains(d.live, id) {
		d.duplicate(op, werr)
		return
	}
	got, gerr := d.al.Allocate(id, demand)
	d.check(op, got, want, gerr, werr)
	if gerr == nil {
		d.live = append(d.live, id)
	}
}

func (d *allocPair) region(id uint32, center, width float64) {
	op := fmt.Sprintf("AllocateRegion(%d, %v, %v)", id, center, width)
	want, werr := d.ref.AllocateRegion(id, center, width)
	if slices.Contains(d.live, id) {
		d.duplicate(op, werr)
		return
	}
	got, gerr := d.al.AllocateRegion(id, center, width)
	d.check(op, got, want, gerr, werr)
	if gerr == nil {
		d.live = append(d.live, id)
	}
}

// duplicate checks an op that named a live ID. The real allocator does
// not know which IDs hold a channel, so it is not asked; the oracle must
// refuse the op.
func (d *allocPair) duplicate(op string, werr error) {
	d.t.Helper()
	if werr == nil {
		d.t.Fatalf("op %d %s: the oracle granted a live ID a second channel", d.n+1, op)
	}
	d.check(op, Assignment{}, Assignment{}, werr, werr)
}

// release frees id's channel through the assignment the oracle holds for
// it (the zero Assignment when it holds none).
func (d *allocPair) release(id uint32) {
	freed, _ := d.ref.Lookup(id)
	gerr, werr := d.al.Release(freed), d.ref.Release(id)
	d.check(fmt.Sprintf("Release(%d)", id), Assignment{}, Assignment{}, gerr, werr)
	if gerr == nil {
		d.freed = freed
		d.live = slices.DeleteFunc(d.live, func(l uint32) bool { return l == id })
	}
}

// check compares the op's own result and then the whole of both books:
// Assignments, Validate.
func (d *allocPair) check(op string, got, want Assignment, gerr, werr error) {
	d.t.Helper()
	d.n++
	fail := func(format string, args ...any) {
		d.t.Helper()
		d.t.Fatalf("op %d %s (band %v): %s", d.n, op, d.al.band, fmt.Sprintf(format, args...))
	}
	if got != want || gerr != werr {
		fail("returned %+v, %v; oracle %+v, %v", got, gerr, want, werr)
	}
	g, w := d.al.Assignments(), d.ref.Assignments()
	if len(g) != len(w) {
		fail("%d assignments, oracle %d", len(g), len(w))
	}
	tied := false
	for i := 0; i < len(g); {
		j := i + 1
		for j < len(g) && g[j].CenterHz == g[i].CenterHz {
			j++
		}
		if j-i > 1 {
			// Bit-equal centers: the oracle's unstable sort over a map walk
			// leaves their order undefined, so the run compares as a set.
			tied = true
			byID := func(a, b Assignment) int { return cmp.Compare(a.NodeID, b.NodeID) }
			slices.SortFunc(g[i:j], byID)
			slices.SortFunc(w[i:j], byID)
		}
		if !slices.Equal(g[i:j], w[i:j]) {
			fail("assignments %d..%d = %+v, oracle %+v", i, j-1, g[i:j], w[i:j])
		}
		i = j
	}
	if tied {
		d.ties++
	}
	// With a tied run the oracle may name the pair the other way round.
	gv, wv := d.al.Validate(), d.ref.Validate()
	if (gv == nil) != (wv == nil) || (gv != nil && !tied && gv.Error() != wv.Error()) {
		fail("Validate() = %v, oracle %v", gv, wv)
	}
}

// TestAllocatorMatchesReference is the differential test of the ordered
// books: 200 seeded sequences of 400 ops, the ISM band and a reuse slice
// of it, every observable compared with the rebuild-and-sort
// oracle after every op.
func TestAllocatorMatchesReference(t *testing.T) {
	ties, grants := 0, 0
	for seed := uint64(0); seed < 200; seed++ {
		rng := stats.NewRNG(0xA110C + seed)
		d := newAllocPair(t, byte(seed))
		for op := 0; op < 400; op++ {
			r := rng.Uint64()
			d.step(byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
			grants = max(grants, len(d.live))
		}
		ties += d.ties
	}
	t.Logf("up to %d live channels; %d ops left two channels on one center", grants, ties)
	if ties == 0 {
		t.Error("no sequence put two channels on one center: the sub-ulp case went untested")
	}
}

// FuzzAllocatorSequence drives the same comparison from bytes: one
// configuration byte, then four bytes per op.
func FuzzAllocatorSequence(f *testing.F) {
	seq := func(cfg byte, ops ...[4]byte) []byte {
		b := []byte{cfg}
		for _, op := range ops {
			b = append(b, op[:]...)
		}
		return b
	}
	// Fill to full: 1 MHz channels until the reuse slice refuses the 16th.
	// (Seeds stay short: the engine minimizes every input that finds new
	// coverage, one run per byte it tries to drop.)
	var fill [][4]byte
	for id := 0; id < 18; id++ {
		fill = append(fill, [4]byte{0, byte(id), 0, 3})
	}
	f.Add(seq(2, fill...))
	// Release every other channel, then ask for widths that do and do not
	// fit the 1 MHz holes.
	holes := slices.Clone(fill)
	for id := 0; id < 15; id += 2 {
		holes = append(holes, [4]byte{4, byte(id), 0, 1})
	}
	for id := 0; id < 12; id++ {
		holes = append(holes, [4]byte{0, byte(id), byte(64 * (id % 3)), 3})
	}
	f.Add(seq(3, holes...))
	// Promote narrower than the host: grant, release, re-place half the
	// freed width on its center, release that, then sub-ulp channels twice
	// on the freed center and once on a standing edge, and take the
	// second of the tied pair away, then the first.
	f.Add(seq(0,
		[4]byte{0, 1, 200, 3}, [4]byte{0, 9, 200, 3}, [4]byte{4, 1, 0, 1},
		[4]byte{6, 2, 127, 0}, [4]byte{4, 2, 0, 1},
		[4]byte{7, 3, 0, 6}, [4]byte{7, 4, 0, 6}, [4]byte{7, 5, 0, 16},
		[4]byte{4, 4, 0, 1}, [4]byte{4, 3, 0, 1}, [4]byte{0, 6, 0, 3}))

	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		d := newAllocPair(t, b[0])
		b = b[1:min(len(b), 1+4*2048)]
		for ; len(b) >= 4; b = b[4:] {
			d.step(b[0], b[1], b[2], b[3])
		}
	})
}
