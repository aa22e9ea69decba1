package simnet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/stats"
)

// TestRoamingRunGoldenAgainstSerialScreen pins every roam decision of a
// busy multi-AP run to a fingerprint recorded while the roam check still
// screened and decided node by node on one core. The scene leans on what
// can make a two-phase check differ from that serial one: 4 APs at reuse
// 2 over the sparse core, dense enough that every AP hosts SDM sharers of
// mixed widths, walkers shading serving paths (the screen widens), short
// holds (roamHoldUntil gates many nodes), Poisson churn, and nodes carried
// across cells between runs. The observer below shows that at least one
// pass holds a roamer whose release promotes a sharer the same pass
// screens later — the one thing the check reads (the sharer's noise
// floor) that an earlier decision of the same pass can change. Refresh
// with UPDATE_GOLDEN=1 only for an intentional behavior change. The run
// is checked at one worker and at eight: the screen's lane count must
// not reach a decision.
func TestRoamingRunGoldenAgainstSerialScreen(t *testing.T) {
	got := roamGoldenRun(t, 1)
	golden := filepath.Join("testdata", "golden_roam_run.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("refreshed %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture (run with UPDATE_GOLDEN=1 to capture): %v", err)
	}
	for _, workers := range []int{1, 8} {
		if workers != 1 {
			got = roamGoldenRun(t, workers)
		}
		if got != string(want) {
			t.Fatalf("Workers=%d: roaming run diverged from the serial-screen golden\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// roamGoldenRun runs the roam golden's scene at the given worker count
// and returns its fingerprint.
func roamGoldenRun(t *testing.T, workers int) string {
	t.Helper()
	const seed = 62
	nw := newTestNetwork(seed)
	nw.Workers = workers
	addExtraAPs(t, nw, 4)
	if err := nw.PlanReuse(2); err != nil {
		t.Fatal(err)
	}
	nw.SetCouplingMode(CouplingSparse)
	nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 1, checkS: 0.1, dwellS: 0.3})
	for _, b := range []*channel.Blocker{
		{Pos: channel.Vec2{X: 1.0, Y: 2.0}, Radius: 0.35, LossDB: 18, Vel: channel.Vec2{X: 1.4, Y: 0.3}},
		{Pos: channel.Vec2{X: 4.5, Y: 1.0}, Radius: 0.3, LossDB: 15, Vel: channel.Vec2{X: -1.1, Y: 0.8}},
		{Pos: channel.Vec2{X: 3.0, Y: 3.2}, Radius: 0.3, LossDB: 12, Vel: channel.Vec2{X: 0.6, Y: -1.2}},
	} {
		nw.Env.AddBlocker(b)
	}

	rng := stats.NewRNG(seed ^ 0x50A3)
	demands := []float64{4e6, 16e6, 40e6}
	pose := func() channel.Pose {
		pos := channel.Vec2{X: rng.Uniform(0.5, 5.5), Y: rng.Uniform(0.4, 3.6)}
		ap := nw.selectAP(pos)
		return channel.Pose{Pos: pos, Orientation: ap.Pose.Pos.Sub(pos).Angle() + rng.Uniform(-0.4, 0.4)}
	}
	const nStart = 64
	for i := 0; i < nStart; i++ {
		id := uint32(i + 1)
		if _, err := nw.Join(id, pose(), demands[rng.Intn(len(demands))], Telemetry(0.05)); err != nil {
			t.Fatalf("join %d: %v", id, err)
		}
	}
	sharers := make([]int, len(nw.APs))
	for _, n := range nw.Nodes {
		if n.Shared {
			sharers[n.AP.idx]++
		}
	}
	for i, c := range sharers {
		if c == 0 {
			t.Fatalf("AP %d hosts no SDM sharer (%v): the scene is too sparse", i, sharers)
		}
	}

	// The observer: a snapshot of every member's AP and sharer status,
	// refreshed after each membership event. The side channel is perfect
	// and nothing crashes, so between two events only a failed roam (no
	// event fires) can promote anyone; a "roam" with no failed roam since
	// the last event therefore owns every sharer→owner change at its old
	// AP.
	type snap struct {
		ap     *AccessPoint
		shared bool
	}
	last := map[uint32]snap{}
	refresh := func() {
		clear(last)
		for _, n := range nw.Nodes {
			last[n.ID] = snap{n.AP, n.Shared}
		}
	}
	lastFailed, promotedLater := 0, 0
	nw.OnMembership = func(event string, id uint32) {
		rs := nw.run
		if event == "roam" && rs.roamsFailed == lastFailed {
			r := nw.nodeByID(id)
			from, now := last[id].ap, rs.sim.Now()
			for _, m := range nw.Nodes[r.idx+1:] {
				if s, ok := last[m.ID]; ok && s.shared && !m.Shared && m.AP == from && !m.Down && now >= m.roamHoldUntil {
					promotedLater++
				}
			}
		}
		lastFailed = rs.roamsFailed
		refresh()
	}

	var got strings.Builder
	nextID := uint32(1000)
	for seg := 0; seg < 3; seg++ {
		if seg > 0 {
			// Carry a few members across cells: each lands nearer
			// another AP, facing it, so the next checks roam it.
			for k := 0; k < 6; k++ {
				n := nw.Nodes[rng.Intn(len(nw.Nodes))]
				for {
					p := pose()
					if nw.selectAP(p.Pos) != n.AP {
						nw.MoveNode(n.ID, p)
						break
					}
				}
			}
		}
		at := 0.0
		for i := 0; i < 8; i++ {
			at += rng.Exp(0.08)
			nw.ScheduleJoin(at, nextID, pose(), demands[rng.Intn(len(demands))], Telemetry(0.05))
			nextID++
		}
		at = 0.0
		for i := 0; i < 6; i++ {
			at += rng.Exp(0.1)
			nw.ScheduleLeave(at, nw.Nodes[rng.Intn(len(nw.Nodes))].ID)
		}
		refresh()
		st := nw.Run(1.0, 0.05, 10)
		fmt.Fprintf(&got, "segment %d\n%s", seg, fingerprintMultiAP(st))
		if err := nw.ValidateSpectrum(); err != nil {
			t.Fatalf("segment %d: spectrum: %v", seg, err)
		}
	}
	if promotedLater == 0 {
		t.Error("no roam promoted a sharer the same pass screens later: the scene no longer covers the noise-floor read")
	}
	return got.String()
}
