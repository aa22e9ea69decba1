package mac

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Assignment is one node's FDM channel.
type Assignment struct {
	NodeID   uint32
	CenterHz float64
	WidthHz  float64
	// FSKOffsetHz is the per-beam VCO offset the node should use inside
	// its channel for joint ASK-FSK.
	FSKOffsetHz float64
}

// Low and High return the channel edges.
func (a Assignment) Low() float64  { return a.CenterHz - a.WidthHz/2 }
func (a Assignment) High() float64 { return a.CenterHz + a.WidthHz/2 }

// FSKFraction is each channel's FSK offset — the per-beam VCO offset of
// joint ASK-FSK — as a fraction of the channel's width. The AP's grants
// and a sharer's self-placed SDM channel use the same figure.
const FSKFraction = 0.05

// Allocator hands out non-overlapping FDM channels from a band, sized by
// each node's demand (§4: "the bandwidth of an allocated channel depends
// on the data rate requirement of the IoT node"). Its books are ordered by
// construction: every grant is a binary insert into one frequency-ordered
// slice and every release a binary remove from it, and placement, the SDM
// share pick, Validate and Assignments read that slice in place — nothing
// is rebuilt or sorted after a mutation.
type Allocator struct {
	band Band
	// order holds every live assignment by ascending CenterHz. Centers are
	// distinct except between channels narrower than the ulp of their
	// center (reachable only through AllocateRegion), which keep insertion
	// order.
	order []Assignment
	// byNode maps node ID → current assignment: the same membership as
	// order (Validate checks it), kept for the O(1) Lookup every renew
	// takes.
	byNode map[uint32]Assignment
}

// NewAllocator creates an allocator over the band.
func NewAllocator(band Band) *Allocator {
	return &Allocator{band: band, byNode: make(map[uint32]Assignment)}
}

// Errors from allocation.
var (
	ErrBandFull         = errors.New("mac: no contiguous spectrum left for the requested rate")
	ErrAlreadyAllocated = errors.New("mac: node already holds a channel")
	ErrNotAllocated     = errors.New("mac: node holds no channel")
	ErrBadDemand        = errors.New("mac: demand must be positive and finite")
	ErrRegionBusy       = errors.New("mac: requested spectrum region unavailable")
)

// Allocate grants nodeID a channel wide enough for demandBps. It returns
// ErrBandFull when FDM is exhausted — the caller's cue to fall back to
// spatial reuse (SDM) on an existing channel.
func (al *Allocator) Allocate(nodeID uint32, demandBps float64) (Assignment, error) {
	// Written so that NaN is refused too: "<= 0" lets it through, no later
	// comparison stops it, and a NaN-centered channel has no place in a
	// sorted slice. An infinite demand fits no band.
	if !(demandBps > 0) || math.IsInf(demandBps, 0) {
		return Assignment{}, ErrBadDemand
	}
	if _, ok := al.byNode[nodeID]; ok {
		return Assignment{}, ErrAlreadyAllocated
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
		FSKOffsetHz: width * FSKFraction,
	}
	al.insert(asg)
	return asg, nil
}

// insert books asg: after every entry whose center is not above its own.
func (al *Allocator) insert(asg Assignment) {
	i := sort.Search(len(al.order), func(i int) bool { return al.order[i].CenterHz > asg.CenterHz })
	al.order = slices.Insert(al.order, i, asg)
	al.byNode[asg.NodeID] = asg
}

// placeChannel picks the low edge of a new channel of the given positive
// width, first fit: one pass over the ordered books, the free span
// [lo, hi) below each assignment and the one above the last computed on
// the way (an empty span has hi <= lo and fits nothing), stopping at the
// lowest span that fits. ok is false when nothing fits.
func (al *Allocator) placeChannel(width float64) (float64, bool) {
	cursor := al.band.LowHz
	for i := 0; i <= len(al.order); i++ {
		lo, hi := cursor, al.band.HighHz
		if i < len(al.order) {
			a := al.order[i]
			hi = a.Low()
			if a.High() > cursor {
				cursor = a.High()
			}
		}
		if hi-lo >= width {
			return lo, true
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
func (al *Allocator) AllocateRegion(nodeID uint32, centerHz, widthHz float64) (Assignment, error) {
	if widthHz <= 0 {
		return Assignment{}, ErrBadDemand
	}
	if _, ok := al.byNode[nodeID]; ok {
		return Assignment{}, ErrAlreadyAllocated
	}
	lo, hi := centerHz-widthHz/2, centerHz+widthHz/2
	if !al.band.Contains(lo, hi) {
		return Assignment{}, ErrRegionBusy
	}
	for _, a := range al.order {
		if lo < a.High() && a.Low() < hi {
			return Assignment{}, ErrRegionBusy
		}
	}
	asg := Assignment{
		NodeID:      nodeID,
		CenterHz:    centerHz,
		WidthHz:     widthHz,
		FSKOffsetHz: widthHz * FSKFraction,
	}
	al.insert(asg)
	return asg, nil
}

// Release frees nodeID's channel.
func (al *Allocator) Release(nodeID uint32) error {
	asg, ok := al.byNode[nodeID]
	if !ok {
		return ErrNotAllocated
	}
	// The first entry at the node's own center, then past any sub-ulp
	// channels that share it.
	i := sort.Search(len(al.order), func(i int) bool { return al.order[i].CenterHz >= asg.CenterHz })
	for al.order[i].NodeID != nodeID {
		i++
	}
	al.order = slices.Delete(al.order, i, i+1)
	delete(al.byNode, nodeID)
	return nil
}

// Lookup returns a node's current assignment.
func (al *Allocator) Lookup(nodeID uint32) (Assignment, bool) {
	a, ok := al.byNode[nodeID]
	return a, ok
}

// Assignments returns all live assignments ordered by frequency. The
// returned slice is the caller's to keep.
func (al *Allocator) Assignments() []Assignment {
	return append([]Assignment(nil), al.order...)
}

// FreeHz returns the total unallocated spectrum. Widths are summed in
// frequency order, so the result is a function of the books alone.
func (al *Allocator) FreeHz() float64 {
	used := 0.0
	for _, a := range al.order {
		used += a.WidthHz
	}
	return al.band.Width() - used
}

// Utilization returns the allocated fraction of the band in [0,1].
func (al *Allocator) Utilization() float64 {
	if al.band.Width() <= 0 {
		return 0
	}
	return 1 - al.FreeHz()/al.band.Width()
}

// Validate checks the allocator's invariants: every assignment inside the
// band, no two overlapping, and the ordered books sorted by center with
// exactly byNode's entries — an insert or remove that went to the wrong
// slot fails every audit built on this (AuditBooks, ValidateSpectrum). It
// returns nil when consistent.
func (al *Allocator) Validate() error {
	if len(al.order) != len(al.byNode) {
		return fmt.Errorf("ordered books hold %d assignments, the node index %d", len(al.order), len(al.byNode))
	}
	for i, a := range al.order {
		if got, ok := al.byNode[a.NodeID]; !ok || got != a {
			return fmt.Errorf("ordered books and node index disagree on node %d", a.NodeID)
		}
		if !al.band.Contains(a.Low(), a.High()) {
			return fmt.Errorf("assignment %d outside band", a.NodeID)
		}
		if i == 0 {
			continue
		}
		prev := al.order[i-1]
		if a.CenterHz < prev.CenterHz {
			return fmt.Errorf("assignments %d and %d out of frequency order", prev.NodeID, a.NodeID)
		}
		if a.Low() < prev.High()-1e-6 {
			return fmt.Errorf("assignments %d and %d overlap", prev.NodeID, a.NodeID)
		}
	}
	return nil
}
