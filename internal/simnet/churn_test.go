package simnet

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/stats"
)

// trafficFunc adapts a plain function to TrafficModel, letting a test
// hook arbitrary code into the middle of a run.
type trafficFunc func() (float64, int)

func (f trafficFunc) Next(*stats.RNG) (float64, int) { return f() }

// churnPose places a churn-test node deterministically by ID.
func churnPose(nw *Network, id uint32) channel.Pose {
	pos := channel.Vec2{X: 1.5 + 0.45*float64(id%9), Y: 0.8 + 0.35*float64(id%7)}
	return channel.Pose{Pos: pos, Orientation: nw.APs[0].Pose.Pos.Sub(pos).Angle()}
}

// TestJoinDuplicateIDRejected regression-tests the duplicate-ID bug: a
// second join under a live ID used to shadow the first node in Run's
// index and silently misattribute its frames and stats. Both the pre-run
// and in-run paths must reject it with a wrapped ErrJoinFailed, without
// touching any spectrum.
func TestJoinDuplicateIDRejected(t *testing.T) {
	nw := newTestNetwork(21)
	joinOne(t, nw, 7, 10e6)
	before := len(nw.Nodes)
	if _, err := nw.Join(7, churnPose(nw, 7), 5e6, Telemetry(0.1)); !errors.Is(err, ErrJoinFailed) {
		t.Fatalf("duplicate pre-run join: err = %v, want ErrJoinFailed", err)
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("error should name the duplicate: %v", err)
	}
	if len(nw.Nodes) != before {
		t.Fatal("duplicate join changed membership")
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatalf("spectrum after rejected join: %v", err)
	}

	// In-run: the scheduled join under a live ID fails at the sim clock
	// and is counted, not applied.
	nw.ScheduleJoin(0.05, 7, churnPose(nw, 7), 5e6, Telemetry(0.1))
	st := nw.Run(0.2, 0.1, 10)
	if st.Joins != 0 || st.JoinsFailed != 1 {
		t.Fatalf("in-run duplicate: Joins=%d JoinsFailed=%d, want 0/1", st.Joins, st.JoinsFailed)
	}
	if len(nw.Nodes) != before {
		t.Fatal("in-run duplicate join changed membership")
	}
}

// TestNoSampleSINRSentinel: a node that is Down for an entire run gets
// no SINR samples; its MinSINRdB/MeanSINRdB must clamp to the
// NoSampleSINRdB sentinel (not +Inf / 0) so downstream consumers can
// detect the case — and the sentinel equals itself, keeping same-seed
// RunStats comparable with reflect.DeepEqual.
func TestNoSampleSINRSentinel(t *testing.T) {
	nw := newTestNetwork(22)
	n := joinOne(t, nw, 1, 10e6)
	joinOne(t, nw, 2, 10e6)
	n.Down = true
	st := nw.Run(0.3, 0.1, 10)
	var down NodeStats
	for _, s := range st.PerNode {
		if s.ID == 1 {
			down = s
		}
	}
	if down.SINRSamples != 0 {
		t.Fatalf("down node sampled SINR %d times", down.SINRSamples)
	}
	if down.MinSINRdB != NoSampleSINRdB || down.MeanSINRdB != NoSampleSINRdB {
		t.Errorf("no-sample stats = min %g / mean %g, want sentinel %g",
			down.MinSINRdB, down.MeanSINRdB, NoSampleSINRdB)
	}
	if NoSampleSINRdB != NoSampleSINRdB {
		t.Error("sentinel must equal itself (NaN would break DeepEqual determinism checks)")
	}
}

// TestScheduleJoinLeave drives pre-planned churn through Run: a node
// joins mid-run (its handshake's virtual time elapsing first), another
// leaves mid-run, and the presence-normalized stats reflect exactly the
// intervals each node was on the air.
func TestScheduleJoinLeave(t *testing.T) {
	nw := newTestNetwork(23)
	placeNodes(t, nw, 3, 10e6)
	nw.ScheduleJoin(0.3, 50, churnPose(nw, 50), 10e6, HDCamera(8))
	nw.ScheduleLeave(0.6, 1)
	nw.ScheduleLeave(0.7, 999) // unknown ID: a no-op, not a crash
	// The run's state, kept from inside it: its handles hold the sums.
	var rs *runState
	nw.OnMembership = func(string, uint32) { rs = nw.run }
	st := nw.Run(1.0, 0.05, 10)

	if st.Joins != 1 || st.Leaves != 1 || st.JoinsFailed != 0 {
		t.Fatalf("Joins=%d Leaves=%d JoinsFailed=%d, want 1/1/0", st.Joins, st.Leaves, st.JoinsFailed)
	}
	if nw.nodeByID(1) != nil {
		t.Error("node 1 still a member after its scheduled leave")
	}
	if nw.nodeByID(50) == nil {
		t.Error("node 50 not a member after its scheduled join")
	}
	byID := map[uint32]NodeStats{}
	for _, s := range st.PerNode {
		byID[s.ID] = s
	}
	if len(byID) != 4 {
		t.Fatalf("PerNode covers %d IDs, want 4 (3 starters + 1 joiner)", len(byID))
	}

	joiner := byID[50]
	if joiner.JoinedAtS < 0.3 || joiner.JoinedAtS > 0.5 {
		t.Errorf("joiner active at %g s, want shortly after 0.3 (handshake time included)", joiner.JoinedAtS)
	}
	if joiner.LeftAtS != 1.0 {
		t.Errorf("joiner LeftAtS = %g, want run end 1.0", joiner.LeftAtS)
	}
	if want := joiner.LeftAtS - joiner.JoinedAtS; math.Abs(joiner.ActiveS-want) > 1e-12 {
		t.Errorf("joiner ActiveS = %g, want %g", joiner.ActiveS, want)
	}
	if joiner.FramesSent == 0 {
		t.Error("joiner sent no frames after activation")
	}

	leaver := byID[1]
	if leaver.JoinedAtS != 0 || math.Abs(leaver.LeftAtS-0.6) > 1e-12 {
		t.Errorf("leaver interval [%g,%g], want [0,0.6]", leaver.JoinedAtS, leaver.LeftAtS)
	}
	if math.Abs(leaver.ActiveS-0.6) > 1e-12 {
		t.Errorf("leaver ActiveS = %g, want 0.6", leaver.ActiveS)
	}
	// Airtime normalizes over time-present: a node streaming at a steady
	// duty cycle reports roughly the same fraction whether it stayed the
	// whole run or left early.
	stayer := byID[2]
	if leaver.AirtimeFraction <= 0 || stayer.AirtimeFraction <= 0 {
		t.Fatal("expected nonzero airtime for CBR nodes")
	}
	if ratio := leaver.AirtimeFraction / stayer.AirtimeFraction; ratio < 0.5 || ratio > 2 {
		t.Errorf("presence-normalized airtime ratio = %g, want ~1", ratio)
	}
	for _, h := range rs.order {
		if s := byID[h.st.ID]; s.ActiveS > 0 && h.airtime == 0 && s.AirtimeFraction != 0 {
			t.Errorf("node %d airtime fraction without airtime", s.ID)
		}
	}
}

// TestInRunJoinLeaveFromCallback: Join and Leave called directly from a
// traffic-model callback — the paths that used to panic — now execute as
// membership events at the current sim clock.
func TestInRunJoinLeaveFromCallback(t *testing.T) {
	nw := newTestNetwork(24)
	placeNodes(t, nw, 3, 10e6)
	trigger := joinOne(t, nw, 9, 10e6)
	acted := false
	trigger.Traffic = trafficFunc(func() (float64, int) {
		if !acted {
			acted = true
			if _, err := nw.Join(60, churnPose(nw, 60), 10e6, Telemetry(0.05)); err != nil {
				t.Errorf("in-run Join: %v", err)
			}
			nw.Leave(2)
		}
		return 0.04, 200
	})
	st := nw.Run(0.5, 0.05, 10)
	if !acted {
		t.Fatal("traffic callback never fired")
	}
	if st.Joins != 1 || st.Leaves != 1 {
		t.Fatalf("Joins=%d Leaves=%d, want 1/1", st.Joins, st.Leaves)
	}
	if nw.nodeByID(60) == nil || nw.nodeByID(2) != nil {
		t.Error("membership does not reflect the in-run churn")
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatalf("spectrum after in-run churn: %v", err)
	}
}

// churnScenario builds the reference churn run: nStart nodes up front,
// then Poisson-timed joins and leaves planned from a dedicated seeded
// RNG. Everything is a pure function of seed.
func churnScenario(t *testing.T, seed uint64, nStart, nJoins, nLeaves int) *Network {
	t.Helper()
	nw := newTestNetwork(seed)
	for i := 0; i < nStart; i++ {
		id := uint32(i + 1)
		if _, err := nw.Join(id, churnPose(nw, id), 2e6, Telemetry(0.05)); err != nil {
			t.Fatalf("seed join %d: %v", id, err)
		}
	}
	rng := stats.NewRNG(seed ^ 0xC4021)
	at := 0.0
	for i := 0; i < nJoins; i++ {
		at += rng.Exp(0.02)
		id := uint32(1000 + i)
		nw.ScheduleJoin(at, id, churnPose(nw, id), 2e6, Telemetry(0.05))
	}
	at = 0.0
	for i := 0; i < nLeaves; i++ {
		at += rng.Exp(0.02)
		nw.ScheduleLeave(at, uint32(1+int(rng.Uint64()%uint64(nStart))))
	}
	return nw
}

// fingerprintRunStats renders every float in RunStats as a hex float
// (%x), so two runs compare bit-for-bit — no decimal rounding can mask a
// divergence.
func fingerprintRunStats(st RunStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dur=%x joins=%d leaves=%d failed=%d ctl=%+v\n",
		st.Duration, st.Joins, st.Leaves, st.JoinsFailed, st.Control)
	for _, s := range st.PerNode {
		fmt.Fprintf(&b, "%d sent=%d lost=%d drop=%d out=%d bits=%x min=%x mean=%x ns=%d of=%x af=%x md=%x j=%x l=%x a=%x\n",
			s.ID, s.FramesSent, s.FramesLost, s.FramesDropped, s.FramesOutage,
			s.BitsDelivered, s.MinSINRdB, s.MeanSINRdB, s.SINRSamples,
			s.OutageFraction, s.AirtimeFraction, s.MeanDelayS,
			s.JoinedAtS, s.LeftAtS, s.ActiveS)
	}
	return b.String()
}

// TestChurnDeterminism: two identical churn runs are byte-identical —
// the whole simulation, membership events included, is a pure function
// of the seed.
func TestChurnDeterminism(t *testing.T) {
	run := func() RunStats {
		nw := churnScenario(t, 31, 12, 8, 6)
		return nw.Run(1.0, 0.05, 10)
	}
	a, b := run(), run()
	fa, fb := fingerprintRunStats(a), fingerprintRunStats(b)
	if fa != fb {
		t.Fatalf("same-seed churn runs diverge:\n--- run A ---\n%s--- run B ---\n%s", fa, fb)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fingerprints match but RunStats differ structurally")
	}
}

// TestChurnSpectrumInvariants is the acceptance run: a 200-node network
// under Poisson joins and leaves, with ValidateSpectrum audited after
// every single membership event inside Run (over the perfect side
// channel, where promote pushes cannot be lost and the books are
// consistent at every event boundary).
func TestChurnSpectrumInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("200-node churn run")
	}
	nw := churnScenario(t, 33, 200, 25, 25)
	events := 0
	nw.OnMembership = func(event string, id uint32) {
		events++
		if err := nw.ValidateSpectrum(); err != nil {
			t.Fatalf("spectrum inconsistent after %s of node %d (event %d): %v", event, id, events, err)
		}
	}
	st := nw.Run(1.0, 0.1, 10)
	if st.Joins == 0 || st.Leaves == 0 {
		t.Fatalf("churn did not happen: Joins=%d Leaves=%d", st.Joins, st.Leaves)
	}
	if events != st.Joins+st.Leaves {
		t.Errorf("OnMembership fired %d times, counters say %d", events, st.Joins+st.Leaves)
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatalf("spectrum after run: %v", err)
	}
}
