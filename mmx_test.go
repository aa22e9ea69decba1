package mmx

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"mmx/internal/fec"
	"mmx/internal/modem"
)

func TestFacing(t *testing.T) {
	p := Facing(0, 0, 0, 5)
	if math.Abs(p.FacingRad-math.Pi/2) > 1e-12 {
		t.Errorf("FacingRad = %g", p.FacingRad)
	}
}

func TestLinkQualityAndRoundtrip(t *testing.T) {
	env := NewEnvironment(10, 6, 1)
	ap := Pose{X: 8, Y: 3, FacingRad: math.Pi}
	link := env.NewLink(Facing(1, 3, 8, 3), ap)

	q := link.Quality()
	if q.SNRdB < 15 {
		t.Errorf("SNR = %.1f dB", q.SNRdB)
	}
	if q.BER > 1e-8 {
		t.Errorf("BER = %g", q.BER)
	}
	if q.Inverted {
		t.Error("facing link should not be inverted")
	}

	payload := []byte("hello from the public API")
	capture, err := link.Send(payload)
	if err != nil {
		t.Fatal(err)
	}
	res, err := link.Receive(capture, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Errorf("payload = %q", res.Payload)
	}
}

func TestLinkSurvivesRotationFixedBeamDoesNot(t *testing.T) {
	env := NewEnvironment(10, 6, 2)
	ap := Pose{X: 6, Y: 3, FacingRad: math.Pi}
	node := Facing(1, 3, 6, 3)
	node.FacingRad += 30 * math.Pi / 180 // AP lands in Beam 1's null
	link := env.NewLink(node, ap)

	q := link.Quality()
	if q.SNRdB-q.FixedBeamSNRdB < 10 {
		t.Errorf("OTAM gain = %.1f dB at the null, want >10",
			q.SNRdB-q.FixedBeamSNRdB)
	}
	if !q.Inverted {
		t.Error("Beam 0 should dominate at this orientation")
	}
	if otam := link.MeasureBER(5, true); otam > 1e-3 {
		t.Errorf("OTAM measured BER = %g", otam)
	}
	if fixed := link.MeasureBER(5, false); fixed < 0.05 {
		t.Errorf("fixed-beam measured BER = %g, should collapse", fixed)
	}
}

func TestLinkBlockerAndStep(t *testing.T) {
	env := NewEnvironment(10, 6, 3)
	ap := Pose{X: 6, Y: 3, FacingRad: math.Pi}
	link := env.NewLink(Facing(1, 3, 6, 3), ap)
	before := link.Quality().SNRdB
	env.AddBlocker(3.5, 3, 0, 0)
	after := link.Quality().SNRdB
	if after >= before {
		t.Error("blocker should cost SNR")
	}
	if after < 8 {
		t.Errorf("blocked SNR = %.1f dB, should stay usable", after)
	}
	// SetNodePose moves the node away from the shadow.
	link.SetNodePose(Facing(1, 1, 6, 3))
	if moved := link.Quality().SNRdB; moved <= after {
		t.Error("moving out of the shadow should help")
	}
}

func TestNetworkLifecycle(t *testing.T) {
	env := NewEnvironment(6, 4, 5)
	nw := env.NewNetwork(Pose{X: 0.3, Y: 2, FacingRad: 0}, 99)
	// Three cameras and a telemetry sensor.
	for i, pos := range []Pose{
		Facing(3, 1, 0.3, 2), Facing(5, 3, 0.3, 2), Facing(4, 2, 0.3, 2),
	} {
		info, err := nw.Join(uint32(i+1), pos, 10e6, CameraTraffic(8))
		if err != nil {
			t.Fatal(err)
		}
		if info.WidthHz != 12.5e6 {
			t.Errorf("camera channel width = %g", info.WidthHz)
		}
		if info.SharedViaSDM {
			t.Error("plenty of spectrum: should be FDM")
		}
	}
	if _, err := nw.Join(4, Facing(2, 3, 0.3, 2), 1e3, TelemetryTraffic(0.5)); err != nil {
		t.Fatal(err)
	}
	reports := nw.Reports()
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		if r.SINRdB < 10 {
			t.Errorf("node %d SINR = %.1f", r.ID, r.SINRdB)
		}
	}
	if nw.MeanSINRdB() < 15 {
		t.Errorf("mean SINR = %.1f", nw.MeanSINRdB())
	}

	stats := nw.Run(1.0, 0.1, 10)
	var goodput float64
	for _, st := range stats.PerNode {
		goodput += st.BitsDelivered
	}
	if goodput < 10e6 {
		t.Errorf("delivered only %.0f bits in 1 s", goodput)
	}

	nw.ScheduleLeave(0, 1)
	nw.Run(0.1, 0.1, 10)
	if len(nw.Reports()) != 3 {
		t.Error("ScheduleLeave did not remove the node")
	}
}

func TestNetworkSDMOverflow(t *testing.T) {
	env := NewEnvironment(6, 4, 6)
	nw := env.NewNetwork(Pose{X: 0.3, Y: 2, FacingRad: 0}, 7)
	sdm := 0
	for i := 1; i <= 4; i++ {
		info, err := nw.Join(uint32(i), Facing(1+float64(i), 0.5+0.8*float64(i), 0.3, 2), 100e6, CameraTraffic(8))
		if err != nil {
			t.Fatal(err)
		}
		if info.SharedViaSDM {
			sdm++
		}
	}
	if sdm != 2 {
		t.Errorf("SDM nodes = %d, want 2 (two 125 MHz channels fit in 250 MHz)", sdm)
	}
}

func TestJoinBadDemand(t *testing.T) {
	env := NewEnvironment(6, 4, 7)
	nw := env.NewNetwork(Pose{X: 0.3, Y: 2}, 1)
	if _, err := nw.Join(1, Facing(3, 2, 0.3, 2), 0, CameraTraffic(8)); err == nil {
		t.Error("zero demand must fail")
	}
}

func TestCodedRoundtrip(t *testing.T) {
	env := NewEnvironment(10, 6, 8)
	link := env.NewLink(Facing(1, 3, 6, 3), Pose{X: 6, Y: 3, FacingRad: math.Pi})
	payload := []byte("forward error corrected frame")
	capture, err := link.SendCoded(payload)
	if err != nil {
		t.Fatal(err)
	}
	res, corrections, err := link.ReceiveCoded(capture, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Errorf("payload = %q", res.Payload)
	}
	if corrections < 0 {
		t.Error("corrections negative")
	}
	// The coded capture is ~7/4 the airtime of the uncoded one.
	plain, err := link.Send(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(capture) < len(plain) {
		t.Error("coded frame should be longer on the air")
	}
}

func TestCodedReceiveBadCapture(t *testing.T) {
	env := NewEnvironment(10, 6, 9)
	link := env.NewLink(Facing(1, 3, 6, 3), Pose{X: 6, Y: 3, FacingRad: math.Pi})
	if _, _, err := link.ReceiveCoded(make([]complex128, 10), 16); err == nil {
		t.Error("tiny capture should fail")
	}
}

func TestAdaptRateFacade(t *testing.T) {
	env := NewEnvironment(10, 6, 10)
	link := env.NewLink(Facing(1, 3, 6, 3), Pose{X: 6, Y: 3, FacingRad: math.Pi})
	if got := link.AdaptRate(1e-6); got != 100e6 {
		t.Errorf("near rate = %g", got)
	}
}

func TestAddWallMaterials(t *testing.T) {
	// A concrete wall severs the link; drywall only dents it.
	base := func(m WallMaterial) float64 {
		env := NewEnvironment(8, 4, 12)
		link := env.NewLink(Facing(1, 2, 7, 2), Pose{X: 7, Y: 2, FacingRad: math.Pi})
		before := link.Quality().SNRdB
		env.AddWall(4, 0, 4, 4, m)
		return before - link.Quality().SNRdB
	}
	drywall := base(Drywall)
	glass := base(Glass)
	concrete := base(Concrete)
	if concrete < 25 {
		t.Errorf("concrete cost %.1f dB, want severing", concrete)
	}
	if drywall < 3 || drywall > 15 {
		t.Errorf("drywall cost %.1f dB, want moderate", drywall)
	}
	if glass >= drywall {
		t.Errorf("glass (%.1f dB) should pass more than drywall (%.1f dB)", glass, drywall)
	}
}

func TestPoseHeight(t *testing.T) {
	env := NewEnvironment(10, 6, 13)
	ap := Pose{X: 6, Y: 3, FacingRad: math.Pi, Height: 2.0} // ceiling hub
	flat := env.NewLink(Facing(1, 3, 6, 3), ap).Quality().SNRdB
	node := Facing(1, 3, 6, 3)
	node.Height = 2.0 // same ceiling rail
	same := env.NewLink(node, ap).Quality().SNRdB
	if same <= flat {
		t.Errorf("matching heights (%.1f dB) should beat a 2 m offset (%.1f dB)", same, flat)
	}
}

func TestEnvironmentDeterminism(t *testing.T) {
	// Identical seeds give bit-identical link behaviour, including the
	// noisy waveform path.
	run := func() ([]complex128, float64) {
		env := NewEnvironment(10, 6, 77)
		link := env.NewLink(Facing(1, 3, 6, 3), Pose{X: 6, Y: 3, FacingRad: math.Pi})
		x, err := link.Send([]byte("determinism"))
		if err != nil {
			t.Fatal(err)
		}
		return x, link.Quality().SNRdB
	}
	x1, s1 := run()
	x2, s2 := run()
	if s1 != s2 {
		t.Errorf("SNR diverged: %v vs %v", s1, s2)
	}
	if len(x1) != len(x2) {
		t.Fatal("capture lengths diverged")
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("capture diverged at sample %d", i)
		}
	}
}

func TestReceiveCodedCRCFallback(t *testing.T) {
	// Corrupt a few payload bits after the CRC was computed: the frame
	// check fails, but the Hamming layer underneath repairs the bits and
	// ReceiveCoded's fallback path recovers the payload anyway.
	env := NewEnvironment(10, 6, 16)
	link := env.NewLink(Facing(1, 3, 6, 3), Pose{X: 6, Y: 3, FacingRad: math.Pi})
	payload := []byte("crc fails, code repairs")
	coded := fec.NewCodec().Encode(payload)
	bits, err := modem.BuildFrame(coded)
	if err != nil {
		t.Fatal(err)
	}
	// Flip three well-separated coded-payload bits (past preamble+length).
	for _, off := range []int{40, 160, 290} {
		i := len(modem.Preamble) + 16 + off
		bits[i] = !bits[i]
	}
	ev := link.l.Evaluate()
	x := modem.Synthesize(link.l.Cfg.Modem, bits, ev.G0, ev.G1)
	res, corrections, err := link.ReceiveCoded(x, len(payload))
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if corrections < 3 {
		t.Errorf("corrections = %d, want ≥3", corrections)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Errorf("payload = %q", res.Payload)
	}
}

func TestReceiveCodedUnrecoverable(t *testing.T) {
	// A capture that cannot even sync propagates the original error.
	env := NewEnvironment(10, 6, 17)
	link := env.NewLink(Facing(1, 3, 6, 3), Pose{X: 6, Y: 3, FacingRad: math.Pi})
	junk := make([]complex128, 60000) // long enough, but silence
	if _, _, err := link.ReceiveCoded(junk, 8); err == nil {
		t.Error("silent capture should fail")
	}
}

func TestNetworkChurnLifecycleAPI(t *testing.T) {
	env := NewEnvironment(6, 4, 7)
	nw := env.NewNetwork(Pose{X: 0.3, Y: 2}, 11)
	nw.nw.Workers = 2
	// Fill the band, overflow into SDM, then churn the owner out.
	if _, err := nw.Join(1, Facing(2, 1, 0.3, 2), 200e6, CameraTraffic(8)); err != nil {
		t.Fatal(err)
	}
	shared, err := nw.Join(2, Facing(4, 3, 0.3, 2), 20e6, CameraTraffic(8))
	if err != nil {
		t.Fatal(err)
	}
	if !shared.SharedViaSDM {
		t.Fatal("full band should push the second node into SDM")
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatal(err)
	}
	nw.ScheduleLeave(0, 1)
	nw.Run(0.1, 0.1, 10)
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatalf("post-churn books inconsistent: %v", err)
	}
	reports := nw.Reports()
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[0].SharedViaSDM {
		t.Error("surviving sharer should be promoted to exclusive owner")
	}
	// MoveNode relocates and the network keeps evaluating.
	if !nw.MoveNode(2, Facing(1.5, 0.8, 0.3, 2)) {
		t.Fatal("MoveNode missed node 2")
	}
	if nw.MoveNode(99, Facing(1, 1, 0.3, 2)) {
		t.Error("MoveNode invented a node")
	}
	if got := nw.Reports(); len(got) != 1 || got[0].SINRdB <= 0 {
		t.Errorf("post-move reports = %+v", got)
	}
}

func TestScheduledChurnFacade(t *testing.T) {
	env := NewEnvironment(6, 4, 7)
	nw := env.NewNetwork(Pose{X: 0.3, Y: 2}, 11)
	for i := uint32(1); i <= 3; i++ {
		if _, err := nw.Join(i, Facing(1+float64(i), 1, 0.3, 2), 10e6, TelemetryTraffic(0.05)); err != nil {
			t.Fatal(err)
		}
	}
	nw.ScheduleJoin(0.2, 10, Facing(3, 2.5, 0.3, 2), 10e6, CameraTraffic(8))
	nw.ScheduleLeave(0.5, 2)
	var events []string
	nw.OnMembershipChange(func(event string, id uint32) {
		events = append(events, event)
		if err := nw.ValidateSpectrum(); err != nil {
			t.Fatalf("spectrum after %s of %d: %v", event, id, err)
		}
	})
	st := nw.Run(1.0, 0.1, 10)
	if st.Joins != 1 || st.Leaves != 1 || st.JoinsFailed != 0 {
		t.Fatalf("Joins=%d Leaves=%d JoinsFailed=%d, want 1/1/0", st.Joins, st.Leaves, st.JoinsFailed)
	}
	if len(events) != 2 || events[0] != "join" || events[1] != "leave" {
		t.Fatalf("membership events = %v, want [join leave]", events)
	}
	if len(st.PerNode) != 4 {
		t.Fatalf("PerNode = %d entries, want 4", len(st.PerNode))
	}
	for _, s := range st.PerNode {
		switch s.ID {
		case 2:
			if s.ActiveS >= 0.6 || s.ActiveS <= 0.4 {
				t.Errorf("leaver ActiveS = %g, want ~0.5", s.ActiveS)
			}
		case 10:
			if s.JoinedAtS < 0.2 || s.FramesSent == 0 {
				t.Errorf("joiner JoinedAtS=%g FramesSent=%d", s.JoinedAtS, s.FramesSent)
			}
		}
	}
	// Duplicate admission stays rejected through the facade.
	if _, err := nw.Join(10, Facing(3, 2.5, 0.3, 2), 1e6, TelemetryTraffic(1)); !errors.Is(err, ErrJoinFailed) {
		t.Fatalf("duplicate facade join: %v, want ErrJoinFailed", err)
	}
}
