package mac

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mmx/internal/stats"
)

func TestBands(t *testing.T) {
	ism := ISM24GHz()
	if ism.Width() != 250e6 {
		t.Errorf("ISM width = %g", ism.Width())
	}
	b60 := Unlicensed60GHz()
	if b60.Width() != 7e9 {
		t.Errorf("60 GHz width = %g", b60.Width())
	}
	if !ism.Contains(24.0e9, 24.1e9) || ism.Contains(23.9e9, 24.1e9) {
		t.Error("Contains wrong")
	}
	if ism.String() == "" {
		t.Error("String empty")
	}
}

func TestBandwidthForRate(t *testing.T) {
	// 10 Mbps HD camera → 12.5 MHz with guard.
	if got := BandwidthForRate(10e6); got != 12.5e6 {
		t.Errorf("BandwidthForRate(10M) = %g", got)
	}
	// Tiny telemetry floors at 1 MHz.
	if got := BandwidthForRate(1000); got != 1e6 {
		t.Errorf("floor = %g", got)
	}
}

func TestAllocateBasic(t *testing.T) {
	al := NewAllocator(ISM24GHz())
	a, err := al.Allocate(1, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	if a.WidthHz != 12.5e6 {
		t.Errorf("width = %g", a.WidthHz)
	}
	if a.Low() < 24.0e9 {
		t.Errorf("low edge = %g", a.Low())
	}
	if a.FSKOffsetHz <= 0 || a.FSKOffsetHz >= a.WidthHz {
		t.Errorf("FSK offset = %g", a.FSKOffsetHz)
	}
	if _, ok := al.Lookup(1); !ok {
		t.Error("Lookup missed")
	}
	if err := al.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAllocateErrors(t *testing.T) {
	al := NewAllocator(ISM24GHz())
	if _, err := al.Allocate(1, 0); err != ErrBadDemand {
		t.Errorf("zero demand: %v", err)
	}
	if _, err := al.Allocate(1, 10e6); err != nil {
		t.Fatal(err)
	}
	if _, err := al.Allocate(1, 10e6); err != ErrAlreadyAllocated {
		t.Errorf("double allocate: %v", err)
	}
	if err := al.Release(99); err != ErrNotAllocated {
		t.Errorf("release unknown: %v", err)
	}
}

func TestBandFullAndReuseAfterRelease(t *testing.T) {
	al := NewAllocator(ISM24GHz())
	// 250 MHz / 125 MHz per 100 Mbps node → exactly 2 fit.
	if _, err := al.Allocate(1, 100e6); err != nil {
		t.Fatal(err)
	}
	if _, err := al.Allocate(2, 100e6); err != nil {
		t.Fatal(err)
	}
	if _, err := al.Allocate(3, 100e6); !errors.Is(err, ErrBandFull) {
		t.Fatalf("expected band full, got %v", err)
	}
	if err := al.Release(1); err != nil {
		t.Fatal(err)
	}
	if _, err := al.Allocate(3, 100e6); err != nil {
		t.Fatalf("reuse after release: %v", err)
	}
	if err := al.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFirstFitFillsGaps(t *testing.T) {
	al := NewAllocator(ISM24GHz())
	// Three 50 Mbps nodes, drop the middle one, then a small node should
	// land in the gap, not at the end.
	for id := uint32(1); id <= 3; id++ {
		if _, err := al.Allocate(id, 50e6); err != nil {
			t.Fatal(err)
		}
	}
	mid, _ := al.Lookup(2)
	if err := al.Release(2); err != nil {
		t.Fatal(err)
	}
	small, err := al.Allocate(4, 20e6)
	if err != nil {
		t.Fatal(err)
	}
	if small.Low() < mid.Low()-1 || small.High() > mid.High()+1 {
		t.Errorf("small channel [%g,%g] not placed in gap [%g,%g]",
			small.Low(), small.High(), mid.Low(), mid.High())
	}
	if err := al.Validate(); err != nil {
		t.Error(err)
	}
}

func TestUtilizationAndFree(t *testing.T) {
	al := NewAllocator(ISM24GHz())
	if al.Utilization() != 0 {
		t.Error("fresh allocator should be empty")
	}
	al.Allocate(1, 100e6)
	if u := al.Utilization(); math.Abs(u-0.5) > 1e-9 {
		t.Errorf("utilization = %g, want 0.5", u)
	}
	if f := al.FreeHz(); math.Abs(f-125e6) > 1 {
		t.Errorf("free = %g", f)
	}
}

func TestAllocatorInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		al := NewAllocator(ISM24GHz())
		live := map[uint32]bool{}
		for op := 0; op < 200; op++ {
			id := uint32(rng.Intn(20))
			if rng.Uint64()&1 == 1 && !live[id] {
				demand := rng.Uniform(1e6, 60e6)
				if _, err := al.Allocate(id, demand); err == nil {
					live[id] = true
				}
			} else if live[id] {
				if al.Release(id) != nil {
					return false
				}
				delete(live, id)
			}
			if al.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestProtoRoundtrips(t *testing.T) {
	msgs := []any{
		JoinRequest{NodeID: 7, DemandBps: 8e6},
		AssignmentMsg{NodeID: 7, CenterHz: 24.05e9, WidthHz: 10e6, FSKOffsetHz: 5e5},
		ReleaseMsg{NodeID: 7},
		RejectMsg{NodeID: 7, ShareHz: 24.01e9, Harmonic: -3},
	}
	for _, m := range msgs {
		raw, err := Marshal(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		got, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got != m {
			t.Errorf("roundtrip %T: %#v != %#v", m, got, m)
		}
	}
}

func TestProtoErrors(t *testing.T) {
	if _, err := Marshal(42); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type: %v", err)
	}
	if _, err := Unmarshal(nil); !errors.Is(err, ErrShortMessage) {
		t.Errorf("empty: %v", err)
	}
	if _, err := Unmarshal([]byte{0xFF}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("bad tag: %v", err)
	}
	raw, _ := Marshal(JoinRequest{NodeID: 1, DemandBps: 1e6})
	if _, err := Unmarshal(raw[:4]); !errors.Is(err, ErrShortMessage) {
		t.Errorf("truncated: %v", err)
	}
	for _, m := range []any{
		AssignmentMsg{NodeID: 1}, ReleaseMsg{NodeID: 1}, RejectMsg{NodeID: 1},
	} {
		raw, _ := Marshal(m)
		if _, err := Unmarshal(raw[:len(raw)-1]); !errors.Is(err, ErrShortMessage) {
			t.Errorf("truncated %T: %v", m, err)
		}
	}
}

func TestControllerGrantAndReject(t *testing.T) {
	c := NewController(ISM24GHz())
	ask := func(id uint32, bps float64) any {
		raw, _ := Marshal(JoinRequest{NodeID: id, DemandBps: bps})
		reply, err := c.HandleAtAppend(nil, raw, c.NowS())
		if err != nil {
			t.Fatal(err)
		}
		msg, err := Unmarshal(reply)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	// Two 100 Mbps grants fill the ISM band.
	if _, ok := ask(1, 100e6).(AssignmentMsg); !ok {
		t.Fatal("first join should be granted")
	}
	if _, ok := ask(2, 100e6).(AssignmentMsg); !ok {
		t.Fatal("second join should be granted")
	}
	rej, ok := ask(3, 100e6).(RejectMsg)
	if !ok {
		t.Fatal("third join should be rejected into SDM")
	}
	if rej.Harmonic == 0 {
		t.Error("reject should carry an SDM harmonic slot")
	}
	// Distinct harmonics for consecutive overflow nodes.
	rej2 := ask(4, 100e6).(RejectMsg)
	if rej2.Harmonic == rej.Harmonic {
		t.Error("SDM slots should rotate")
	}
	// Release frees spectrum for a new join and is acknowledged, so a
	// node on a lossy channel can tell "done" from "lost".
	raw, _ := Marshal(ReleaseMsg{NodeID: 1})
	reply, err := c.HandleAtAppend(nil, raw, c.NowS())
	if err != nil {
		t.Fatalf("release: %v", err)
	}
	if msg, _ := Unmarshal(reply); msg != (AckMsg{NodeID: 1}) {
		t.Fatalf("release reply = %v", msg)
	}
	if _, ok := ask(5, 100e6).(AssignmentMsg); !ok {
		t.Error("join after release should be granted")
	}
}

func TestControllerBadInput(t *testing.T) {
	c := NewController(ISM24GHz())
	if _, err := c.HandleAtAppend(nil, []byte{0xFF}, c.NowS()); err == nil {
		t.Error("bad message should error")
	}
	// An Assignment sent *to* the controller is not a request.
	raw, _ := Marshal(AssignmentMsg{NodeID: 1})
	if _, err := c.HandleAtAppend(nil, raw, c.NowS()); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unexpected direction: %v", err)
	}
	// Zero-demand join propagates the allocator error.
	raw, _ = Marshal(JoinRequest{NodeID: 1, DemandBps: 0})
	if _, err := c.HandleAtAppend(nil, raw, c.NowS()); !errors.Is(err, ErrBadDemand) {
		t.Errorf("zero demand: %v", err)
	}
}

// TestFreeGaps checks the gaps placeChannel walks — there is no gap list
// to read, so it asks for widths that just fit and just miss each one.
func TestFreeGaps(t *testing.T) {
	al := NewAllocator(ISM24GHz())
	low := al.band.LowHz
	place := func(width float64, wantLo float64, wantOK bool) {
		t.Helper()
		if lo, ok := al.placeChannel(width); ok != wantOK || lo != wantLo {
			t.Errorf("placeChannel(%g) = +%g MHz, %v; want +%g MHz, %v",
				width, (lo-low)/1e6, ok, (wantLo-low)/1e6, wantOK)
		}
	}
	// A fresh band is one gap of its own width.
	place(250e6, low, true)
	place(250e6+1, 0, false)
	al.Allocate(1, 40e6) // 50 MHz at the bottom
	al.Allocate(2, 40e6)
	al.Release(1)
	// Two gaps: the freed 50 MHz below channel 2 and 150 MHz above it.
	place(50e6, low, true)
	place(50e6+1, low+100e6, true)
	place(150e6, low+100e6, true)
	place(150e6+1, 0, false)
	// A smaller gap on top that fits just as well: first fit still takes
	// the lower one.
	al.Allocate(3, 100e6) // [100,225) MHz, leaving 25 MHz at the top
	place(20e6, low, true)
	place(25e6, low, true)
}

func TestProtoRoundtripsLifecycle(t *testing.T) {
	msgs := []any{
		ShareConfirmMsg{NodeID: 9, ShareHz: 24.06e9, WidthHz: 50e6, Harmonic: -2},
		PromoteMsg{NodeID: 9, CenterHz: 24.06e9, WidthHz: 50e6, FSKOffsetHz: 2.5e6},
	}
	for _, m := range msgs {
		raw, err := Marshal(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		got, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got != m {
			t.Errorf("roundtrip %T: %#v != %#v", m, got, m)
		}
		if _, err := Unmarshal(raw[:len(raw)-1]); !errors.Is(err, ErrShortMessage) {
			t.Errorf("truncated %T: %v", m, err)
		}
	}
}

func TestAllocateRegion(t *testing.T) {
	al := NewAllocator(ISM24GHz())
	a, err := al.Allocate(1, 100e6) // [0,125) MHz
	if err != nil {
		t.Fatal(err)
	}
	// A free region is granted in place.
	center := a.High() + 25e6
	r, err := al.AllocateRegion(2, center, 50e6)
	if err != nil {
		t.Fatal(err)
	}
	if r.CenterHz != center || r.WidthHz != 50e6 {
		t.Errorf("region = %+v", r)
	}
	if r.FSKOffsetHz != 50e6*FSKFraction {
		t.Errorf("FSK offset = %g", r.FSKOffsetHz)
	}
	if err := al.Validate(); err != nil {
		t.Fatal(err)
	}
	// Occupied, out-of-band, duplicate and degenerate requests fail.
	if _, err := al.AllocateRegion(3, a.CenterHz, 10e6); !errors.Is(err, ErrRegionBusy) {
		t.Errorf("occupied region: %v", err)
	}
	if _, err := al.AllocateRegion(3, al.band.HighHz, 10e6); !errors.Is(err, ErrRegionBusy) {
		t.Errorf("out of band: %v", err)
	}
	if _, err := al.AllocateRegion(2, center, 50e6); !errors.Is(err, ErrAlreadyAllocated) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := al.AllocateRegion(3, center, 0); !errors.Is(err, ErrBadDemand) {
		t.Errorf("zero width: %v", err)
	}
}

// TestControllerSharerLifecycle drives the churn-safe release path at the
// protocol level: confirm sharers, release the owner, observe promotion.
func TestControllerSharerLifecycle(t *testing.T) {
	c := NewController(ISM24GHz())
	handle := func(m any) any {
		raw, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := c.HandleAtAppend(nil, raw, c.NowS())
		if err != nil {
			t.Fatal(err)
		}
		if reply == nil {
			return nil
		}
		msg, err := Unmarshal(reply)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	owner := handle(JoinRequest{NodeID: 1, DemandBps: 200e6}).(AssignmentMsg) // whole band
	if _, ok := handle(JoinRequest{NodeID: 2, DemandBps: 80e6}).(RejectMsg); !ok {
		t.Fatal("band full: join should be rejected into SDM")
	}
	handle(ShareConfirmMsg{NodeID: 2, ShareHz: owner.CenterHz, WidthHz: 100e6, Harmonic: 2})
	handle(ShareConfirmMsg{NodeID: 3, ShareHz: owner.CenterHz, WidthHz: 10e6, Harmonic: -1})
	if got := c.SharersOn(owner.CenterHz); len(got) != 2 {
		t.Fatalf("sharers = %v", got)
	}
	if ch, ok := c.SharerChannel(2); !ok || ch != owner.CenterHz {
		t.Fatal("sharer 2 not registered")
	}

	// The owner leaves: the release is acked and the widest sharer's
	// promotion is queued as an unsolicited push.
	if _, ok := handle(ReleaseMsg{NodeID: 1}).(AckMsg); !ok {
		t.Fatal("release should be acked")
	}
	notes := c.TakeNotifications()
	if len(notes) != 1 {
		t.Fatalf("release over live sharers should queue one promote, got %d", len(notes))
	}
	noteMsg, err := Unmarshal(notes[0])
	if err != nil {
		t.Fatal(err)
	}
	promote, ok := noteMsg.(PromoteMsg)
	if !ok {
		t.Fatalf("queued push = %T, want PromoteMsg", noteMsg)
	}
	if len(c.TakeNotifications()) != 0 {
		t.Error("TakeNotifications should drain the queue")
	}
	if promote.NodeID != 2 || promote.CenterHz != owner.CenterHz || promote.WidthHz != 100e6 {
		t.Errorf("promotion = %+v", promote)
	}
	if _, ok := c.Alloc.Lookup(2); !ok {
		t.Fatal("promoted sharer missing from allocator")
	}
	if _, ok := c.SharerChannel(2); ok {
		t.Error("promoted node still registered as sharer")
	}
	if ch, ok := c.SharerChannel(3); !ok || ch != owner.CenterHz {
		t.Error("remaining sharer lost")
	}

	// Fresh spectrum requests must respect the promoted channel.
	grant, ok := handle(JoinRequest{NodeID: 4, DemandBps: 40e6}).(AssignmentMsg)
	if !ok {
		t.Fatal("free spectrum should be granted")
	}
	if grant.CenterHz-grant.WidthHz/2 < promote.CenterHz+promote.WidthHz/2 &&
		promote.CenterHz-promote.WidthHz/2 < grant.CenterHz+grant.WidthHz/2 {
		t.Errorf("grant %+v overlaps promoted channel %+v", grant, promote)
	}
	if err := c.Alloc.Validate(); err != nil {
		t.Fatal(err)
	}

	// A leaving sharer is struck from the registry without promotion.
	if _, ok := handle(ReleaseMsg{NodeID: 3}).(AckMsg); !ok {
		t.Error("sharer release should be acked")
	}
	if _, ok := c.SharerChannel(3); ok {
		t.Error("sharer 3 still registered")
	}
	if len(c.TakeNotifications()) != 0 {
		t.Error("sharer release should not queue a promotion")
	}
	// Stale release stays a no-op (but is still acked — idempotency).
	if _, ok := handle(ReleaseMsg{NodeID: 99}).(AckMsg); !ok {
		t.Error("stale release should be acked")
	}
}

// TestControllerReconfirmMoves a sharer re-confirming on a new channel must
// move, not duplicate, its registration.
func TestControllerReconfirmMoves(t *testing.T) {
	c := NewController(ISM24GHz())
	handle := func(m any) {
		raw, _ := Marshal(m)
		if _, err := c.HandleAtAppend(nil, raw, c.NowS()); err != nil {
			t.Fatal(err)
		}
	}
	handle(ShareConfirmMsg{NodeID: 5, ShareHz: 24.05e9, WidthHz: 10e6, Harmonic: 1})
	handle(ShareConfirmMsg{NodeID: 5, ShareHz: 24.10e9, WidthHz: 10e6, Harmonic: 1})
	if got := c.SharersOn(24.05e9); len(got) != 0 {
		t.Errorf("stale registration left behind: %v", got)
	}
	if ch, ok := c.SharerChannel(5); !ok || ch != 24.10e9 {
		t.Errorf("sharer channel = %v %v", ch, ok)
	}
}
