package simnet

import (
	"math"
	"testing"

	"mmx/internal/channel"
	"mmx/internal/mac"
	"mmx/internal/stats"
	"mmx/internal/units"
)

func newTestNetwork(seed uint64) *Network {
	rng := stats.NewRNG(seed)
	env := channel.NewEnvironment(channel.NewLabRoom(rng), units.ISM24GHzCenter)
	ap := channel.Pose{Pos: channel.Vec2{X: 0.3, Y: 2}, Orientation: 0}
	return New(env, ap, seed+1000)
}

// placeNodes joins n nodes at deterministic spots facing roughly the AP.
func placeNodes(t *testing.T, nw *Network, n int, demand float64) []*Node {
	t.Helper()
	rng := stats.NewRNG(7)
	out := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		pos := channel.Vec2{
			X: rng.Uniform(1.5, 5.5),
			Y: rng.Uniform(0.5, 3.5),
		}
		orient := nw.APs[0].Pose.Pos.Sub(pos).Angle() + rng.Uniform(-math.Pi/3, math.Pi/3)
		node, err := nw.Join(uint32(i+1), channel.Pose{Pos: pos, Orientation: orient}, demand, HDCamera(8))
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
		out = append(out, node)
	}
	return out
}

func TestTrafficModels(t *testing.T) {
	rng := stats.NewRNG(1)
	cbr := HDCamera(8)
	d, b := cbr.Next(rng)
	if b != 1500 {
		t.Errorf("frame bytes = %d", b)
	}
	if want := 1500.0 * 8 / 8e6; math.Abs(d-want) > 1e-12 {
		t.Errorf("CBR gap = %g, want %g", d, want)
	}
	// Degenerate CBR is harmless.
	if d, b := (CBR{}).Next(rng); d != 1 || b != 0 {
		t.Error("degenerate CBR wrong")
	}
	p := Telemetry(0.5)
	total := 0.0
	for i := 0; i < 20000; i++ {
		d, b := p.Next(rng)
		if b != 64 {
			t.Fatal("telemetry frame size")
		}
		total += d
	}
	if mean := total / 20000; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("poisson mean gap = %g", mean)
	}
	if d, b := (Poisson{}).Next(rng); d != 1 || b != 0 {
		t.Error("degenerate Poisson wrong")
	}
}

func TestJoinFDMThenSDM(t *testing.T) {
	nw := newTestNetwork(1)
	nodes := placeNodes(t, nw, 5, 60e6) // 75 MHz each: 3 fit in 250 MHz
	fdm, sdm := 0, 0
	for _, n := range nodes {
		if n.Shared {
			sdm++
		} else {
			fdm++
		}
	}
	if fdm != 3 || sdm != 2 {
		t.Errorf("fdm=%d sdm=%d, want 3/2", fdm, sdm)
	}
	// Each node's link evaluates at its assigned channel width, and its
	// grant splits the FSK tones.
	for _, n := range nodes {
		if nw.linkCfg(n).BandwidthHz != n.Assignment.WidthHz {
			t.Error("link bandwidth not tied to assignment")
		}
		if n.Assignment.FSKOffsetHz <= 0 {
			t.Error("FSK tones not split")
		}
	}
}

func TestJoinBadDemand(t *testing.T) {
	nw := newTestNetwork(2)
	if _, err := nw.Join(1, channel.Pose{Pos: channel.Vec2{X: 3, Y: 2}}, 0, HDCamera(8)); err == nil {
		t.Error("zero demand should fail")
	}
}

func TestLeaveReleasesSpectrum(t *testing.T) {
	nw := newTestNetwork(3)
	placeNodes(t, nw, 2, 100e6) // fills the band
	if nw.APs[0].Controller.Alloc.FreeHz() > 1 {
		t.Fatal("band should be full")
	}
	nw.Leave(1)
	if len(nw.Nodes) != 1 {
		t.Errorf("nodes = %d", len(nw.Nodes))
	}
	if nw.APs[0].Controller.Alloc.FreeHz() < 100e6 {
		t.Error("spectrum not released")
	}
}

func TestEvaluateSINRSingleNode(t *testing.T) {
	nw := newTestNetwork(4)
	placeNodes(t, nw, 1, 10e6)
	reports := nw.EvaluateSINR()
	if len(reports) != 1 {
		t.Fatal("reports")
	}
	r := reports[0]
	// Alone in the room: SINR == SNR, strong link, tiny BER.
	if math.Abs(r.SINRdB-r.SNRdB) > 1e-9 {
		t.Errorf("lone node SINR %.1f != SNR %.1f", r.SINRdB, r.SNRdB)
	}
	if r.SINRdB < 20 {
		t.Errorf("lab-room SNR = %.1f dB, want strong", r.SINRdB)
	}
	if r.BER > 1e-8 {
		t.Errorf("BER = %g", r.BER)
	}
	if r.PathClass != "los" {
		t.Errorf("path class = %s", r.PathClass)
	}
}

func TestInterferenceGrowsWithNodes(t *testing.T) {
	// Fig. 13's mechanism: more simultaneous nodes → slightly lower mean
	// SINR, but still a robust network at 20 nodes.
	node1 := map[int]float64{}
	means := map[int]float64{}
	for _, n := range []int{1, 5, 20} {
		nw := newTestNetwork(5)
		placeNodes(t, nw, n, 10e6) // deterministic: node sets are prefixes
		means[n] = nw.MeanSINRdB()
		node1[n] = nw.EvaluateSINR()[0].SINRdB
	}
	// Node 1 keeps its position across runs, so added nodes can only add
	// interference to it.
	if !(node1[1] >= node1[5] && node1[5] >= node1[20]) {
		t.Errorf("node-1 SINR not declining: %v", node1)
	}
	if means[20] < 25 {
		t.Errorf("mean SINR at 20 nodes = %.1f dB, want ≥25 (paper: >29)", means[20])
	}
	if node1[1]-node1[20] > 10 {
		t.Errorf("decline %.1f dB too steep (paper shows a gentle slope)", node1[1]-node1[20])
	}
}

func TestSDMCouplingWeakerThanCoChannelChaos(t *testing.T) {
	// Two nodes forced onto the same channel via SDM should still be
	// separable (coupling well below 0 dB).
	nw := newTestNetwork(6)
	placeNodes(t, nw, 4, 100e6) // 2 FDM + 2 SDM
	var sdmNodes []*Node
	for _, n := range nw.Nodes {
		if n.Shared {
			sdmNodes = append(sdmNodes, n)
		}
	}
	if len(sdmNodes) < 2 {
		t.Fatal("expected SDM nodes")
	}
	c := nw.couplingDB(sdmNodes[0], sdmNodes[1])
	if c < 3 {
		t.Errorf("SDM coupling suppression = %.1f dB, want >3", c)
	}
}

func TestCouplingFDMSeparation(t *testing.T) {
	nw := newTestNetwork(7)
	placeNodes(t, nw, 3, 20e6)
	a, b, c := nw.Nodes[0], nw.Nodes[1], nw.Nodes[2]
	// Adjacent channels attenuate by aclrAdjacentDB; far ones more.
	if got := nw.couplingDB(a, b); got != aclrAdjacentDB {
		t.Errorf("adjacent coupling = %g", got)
	}
	if got := nw.couplingDB(a, c); got != aclrFarDB {
		t.Errorf("far coupling = %g", got)
	}
}

func TestMeanSINREmpty(t *testing.T) {
	nw := newTestNetwork(8)
	if !math.IsInf(nw.MeanSINRdB(), -1) {
		t.Error("empty network mean should be -Inf")
	}
}

func TestSimEngineOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.After(2, func() { order = append(order, 2) })
	s.After(1, func() { order = append(order, 1) })
	s.At(1, func() { order = append(order, 10) }) // same time: FIFO by seq
	s.After(3, func() { order = append(order, 3) })
	s.RunUntil(2.5)
	if len(order) != 3 || order[0] != 1 || order[1] != 10 || order[2] != 2 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 2.5 {
		t.Errorf("clock = %g", s.Now())
	}
	// Remaining event fires on the next horizon.
	s.RunUntil(5)
	if len(order) != 4 || order[3] != 3 {
		t.Errorf("order = %v", order)
	}
	// Scheduling in the past clamps to now.
	fired := false
	s.At(1, func() { fired = true })
	s.RunUntil(5)
	if !fired {
		t.Error("past event should fire immediately")
	}
}

func TestRunDeliversCBRTraffic(t *testing.T) {
	nw := newTestNetwork(9)
	placeNodes(t, nw, 3, 10e6)
	res := nw.Run(2.0, 0.1, 10)
	if res.Duration != 2.0 {
		t.Errorf("duration = %g", res.Duration)
	}
	for _, st := range res.PerNode {
		if st.FramesSent < 100 {
			t.Errorf("node %d sent %d frames, want many", st.ID, st.FramesSent)
		}
		// Strong lab links: essentially everything delivered.
		if st.FramesLost > st.FramesSent/10 {
			t.Errorf("node %d lost %d/%d", st.ID, st.FramesLost, st.FramesSent)
		}
		if st.MeanSINRdB < 15 {
			t.Errorf("node %d mean SINR %.1f", st.ID, st.MeanSINRdB)
		}
		if st.MinSINRdB > st.MeanSINRdB+1e-6 {
			t.Error("min above mean")
		}
	}
	// Aggregate goodput ≈ offered 3×10 Mbps.
	if g := res.TotalGoodputBps(); g < 20e6 || g > 40e6 {
		t.Errorf("goodput = %g", g)
	}
}

func TestRunWithWalkingBlocker(t *testing.T) {
	nw := newTestNetwork(10)
	placeNodes(t, nw, 2, 10e6)
	nw.Env.AddBlocker(&channel.Blocker{
		Pos: channel.Vec2{X: 2, Y: 2}, Radius: 0.3, LossDB: 12,
		Vel: channel.Vec2{X: 0.8, Y: 0.5},
	})
	res := nw.Run(3.0, 0.05, 10)
	delivered := 0
	for _, st := range res.PerNode {
		// Links must stay usable through blockage (the OTAM claim).
		if st.MeanSINRdB < 10 {
			t.Errorf("node %d mean SINR %.1f under blockage", st.ID, st.MeanSINRdB)
		}
		if st.FramesLost < st.FramesSent/10 {
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("no node kept a healthy frame-delivery rate under blockage")
	}
	// 1500-byte frames need ≈14 dB; a momentarily blocked camera may
	// drop frames, but the network must keep most of the offered load.
	if res.TotalGoodputBps() < 7e6 {
		t.Errorf("goodput collapsed under blockage: %g", res.TotalGoodputBps())
	}
}

func TestRunStatsEmptyNetwork(t *testing.T) {
	nw := newTestNetwork(11)
	res := nw.Run(1, 0.5, 10)
	if len(res.PerNode) != 0 || res.TotalGoodputBps() != 0 {
		t.Error("empty network should produce empty stats")
	}
	if (RunStats{}).TotalGoodputBps() != 0 {
		t.Error("zero-duration goodput should be 0")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() RunStats {
		nw := newTestNetwork(42)
		placeNodes(t, nw, 3, 10e6)
		nw.Env.AddBlocker(&channel.Blocker{
			Pos: channel.Vec2{X: 2, Y: 2}, Radius: 0.3, LossDB: 12,
			Vel: channel.Vec2{X: 0.5, Y: 0.3},
		})
		return nw.Run(1.0, 0.1, 10)
	}
	a, b := run(), run()
	if len(a.PerNode) != len(b.PerNode) {
		t.Fatal("shape mismatch")
	}
	for i := range a.PerNode {
		if a.PerNode[i] != b.PerNode[i] {
			t.Errorf("node %d stats diverged:\n%+v\n%+v", i, a.PerNode[i], b.PerNode[i])
		}
	}
}

func TestAllocatorStaysValidThroughNetworkChurn(t *testing.T) {
	nw := newTestNetwork(43)
	rng := stats.NewRNG(9)
	live := map[uint32]bool{}
	next := uint32(1)
	for op := 0; op < 120; op++ {
		if rng.Uint64()&1 == 1 || len(live) == 0 {
			id := next
			next++
			pos := channel.Vec2{X: rng.Uniform(1, 5.5), Y: rng.Uniform(0.5, 3.5)}
			if _, err := nw.Join(id, channel.Pose{Pos: pos}, rng.Uniform(5e6, 60e6), HDCamera(8)); err == nil {
				live[id] = true
			}
		} else {
			for id := range live {
				nw.Leave(id)
				delete(live, id)
				break
			}
		}
		if err := nw.APs[0].Controller.Alloc.Validate(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if len(nw.Nodes) != len(live) {
			t.Fatalf("op %d: node list %d != live %d", op, len(nw.Nodes), len(live))
		}
	}
}

func TestVBRVideoStatistics(t *testing.T) {
	rng := stats.NewRNG(3)
	v := NewVBRCamera(8)
	totalBits, totalTime := 0.0, 0.0
	var iSizes, pSizes []float64
	for i := 0; i < 3000; i++ {
		isI := v.frame%v.GOP == 0
		d, b := v.Next(rng)
		totalTime += d
		totalBits += float64(8 * b)
		if isI {
			iSizes = append(iSizes, float64(b))
		} else {
			pSizes = append(pSizes, float64(b))
		}
	}
	// Long-term rate ≈ 8 Mbps.
	if rate := totalBits / totalTime; math.Abs(rate-8e6)/8e6 > 0.05 {
		t.Errorf("VBR long-term rate = %.2f Mbps, want 8", rate/1e6)
	}
	// I-frames ≈ 6x P-frames on average.
	meanI, meanP := 0.0, 0.0
	for _, s := range iSizes {
		meanI += s
	}
	for _, s := range pSizes {
		meanP += s
	}
	meanI /= float64(len(iSizes))
	meanP /= float64(len(pSizes))
	if r := meanI / meanP; r < 4.5 || r > 7.5 {
		t.Errorf("I/P ratio = %.1f, want ≈6", r)
	}
	// Cadence is the frame period.
	if d, _ := v.Next(rng); math.Abs(d-1.0/30) > 1e-12 {
		t.Errorf("frame gap = %g", d)
	}
	// Degenerate config is harmless.
	if d, b := (&VBRVideo{}).Next(rng); d != 1 || b != 0 {
		t.Error("degenerate VBR wrong")
	}
}

func TestNetworkCarriesVBRVideo(t *testing.T) {
	nw := newTestNetwork(44)
	for i := 0; i < 3; i++ {
		pos := channel.Vec2{X: 2 + float64(i), Y: 1.5 + 0.5*float64(i)}
		orient := nw.APs[0].Pose.Pos.Sub(pos).Angle()
		if _, err := nw.Join(uint32(i+1), channel.Pose{Pos: pos, Orientation: orient}, 10e6, NewVBRCamera(8)); err != nil {
			t.Fatal(err)
		}
	}
	res := nw.Run(2, 0.1, 10)
	if g := res.TotalGoodputBps(); g < 18e6 || g > 32e6 {
		t.Errorf("VBR goodput = %.1f Mbps, want ≈24", g/1e6)
	}
}

func TestRateAdaptationAndAirtime(t *testing.T) {
	nw := newTestNetwork(50)
	nodes := placeNodes(t, nw, 2, 10e6)
	// Strong lab links: the channel width (12.5 MHz) caps the adapted
	// rate at 10 Mbps even though the SNR could carry more.
	for _, n := range nodes {
		if n.RateBps != 10e6 {
			t.Errorf("node %d adapted rate = %g, want width-capped 10 Mbps", n.ID, n.RateBps)
		}
	}
	res := nw.Run(2, 0.1, 10)
	for _, st := range res.PerNode {
		// 8 Mbps offered on a 10 Mbps PHY: 80% airtime, no drops, and
		// per-frame latency ≈ the 1.2 ms frame airtime.
		if math.Abs(st.AirtimeFraction-0.8) > 0.05 {
			t.Errorf("node %d airtime = %.2f, want ≈0.8", st.ID, st.AirtimeFraction)
		}
		if st.FramesDropped != 0 {
			t.Errorf("node %d dropped %d frames", st.ID, st.FramesDropped)
		}
		if st.MeanDelayS < 0.0010 || st.MeanDelayS > 0.01 {
			t.Errorf("node %d mean delay = %.4f s", st.ID, st.MeanDelayS)
		}
	}
}

func TestOverloadedNodeDropsFrames(t *testing.T) {
	nw := newTestNetwork(51)
	// Demand declared at 6 Mbps (7.5 MHz channel → 6 Mbps PHY cap) but
	// the camera actually offers 12 Mbps: the queue must shed load.
	pos := channel.Vec2{X: 2, Y: 2}
	orient := nw.APs[0].Pose.Pos.Sub(pos).Angle()
	if _, err := nw.Join(1, channel.Pose{Pos: pos, Orientation: orient}, 6e6, HDCamera(12)); err != nil {
		t.Fatal(err)
	}
	res := nw.Run(2, 0.1, 10)
	st := res.PerNode[0]
	if st.FramesDropped == 0 {
		t.Error("overloaded node should drop frames")
	}
	// Airtime saturates near 1 (the PHY is always busy).
	if st.AirtimeFraction < 0.9 {
		t.Errorf("airtime = %.2f, want ≈1 under overload", st.AirtimeFraction)
	}
	// Goodput caps at roughly the PHY rate, not the offered rate.
	if g := st.BitsDelivered / res.Duration; g > 7e6 {
		t.Errorf("goodput %.1f Mbps exceeds the 6 Mbps PHY", g/1e6)
	}
}

// join is a helper for churn tests: one node at a deterministic pose.
func joinOne(t *testing.T, nw *Network, id uint32, demand float64) *Node {
	t.Helper()
	pos := channel.Vec2{X: 1.5 + 0.7*float64(id%6), Y: 1 + 0.3*float64(id%4)}
	orient := nw.APs[0].Pose.Pos.Sub(pos).Angle()
	n, err := nw.Join(id, channel.Pose{Pos: pos, Orientation: orient}, demand, HDCamera(8))
	if err != nil {
		t.Fatalf("join %d: %v", id, err)
	}
	return n
}

func assignmentsOverlap(a, b mac.Assignment) bool {
	return a.Low() < b.High()-1e-6 && b.Low() < a.High()-1e-6
}

// TestChurnOwnerLeavePromotesSharer is the regression for the verified
// churn bug: after an FDM owner leaves a channel that an SDM sharer still
// occupies, the freed spectrum must NOT be re-granted as an exclusive
// channel over the live sharer. The fixed lifecycle promotes the sharer.
func TestChurnOwnerLeavePromotesSharer(t *testing.T) {
	nw := newTestNetwork(60)
	n1 := joinOne(t, nw, 1, 100e6) // 125 MHz
	n2 := joinOne(t, nw, 2, 100e6) // 125 MHz: band full
	n3 := joinOne(t, nw, 3, 10e6)  // SDM fallback
	if !n3.Shared {
		t.Fatal("third join should fall back to SDM")
	}
	host := n1
	if n3.Assignment.CenterHz == n2.Assignment.CenterHz {
		host = n2
	} else if n3.Assignment.CenterHz != n1.Assignment.CenterHz {
		t.Fatal("sharer not co-channel with an owner")
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatalf("pre-churn: %v", err)
	}

	nw.Leave(host.ID)
	if n3.Shared {
		t.Fatal("sharer not promoted after its host left")
	}
	if _, ok := nw.APs[0].Controller.Alloc.Lookup(3); !ok {
		t.Fatal("promoted sharer missing from the allocator")
	}
	// A fresh joiner must land clear of the promoted ex-sharer.
	n4 := joinOne(t, nw, 4, 80e6)
	if !n4.Shared && assignmentsOverlap(n4.Assignment, n3.Assignment) {
		t.Fatalf("exclusive re-grant %v over live ex-sharer %v", n4.Assignment, n3.Assignment)
	}
	if err := nw.APs[0].Controller.Alloc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatal(err)
	}
}

// TestPromotionCoversRemainingSharers pins the multi-sharer rule: the
// widest sharer is promoted so its channel covers every remaining
// narrower sharer at the same center, and cascading leaves stay valid.
func TestPromotionCoversRemainingSharers(t *testing.T) {
	nw := newTestNetwork(61)
	n1 := joinOne(t, nw, 1, 200e6) // 250 MHz: whole band
	n2 := joinOne(t, nw, 2, 80e6)  // SDM, 100 MHz
	n3 := joinOne(t, nw, 3, 8e6)   // SDM, 10 MHz
	if n1.Shared || !n2.Shared || !n3.Shared {
		t.Fatal("expected one owner plus two sharers")
	}
	nw.Leave(1)
	if n2.Shared {
		t.Fatal("widest sharer should be promoted")
	}
	if !n3.Shared {
		t.Fatal("narrow sharer should stay SDM")
	}
	if n3.Assignment.CenterHz != n2.Assignment.CenterHz {
		t.Fatal("remaining sharer lost its co-channel host")
	}
	if n3.Assignment.Low() < n2.Assignment.Low()-1e-6 ||
		n3.Assignment.High() > n2.Assignment.High()+1e-6 {
		t.Fatalf("remaining sharer %v outside promoted channel %v", n3.Assignment, n2.Assignment)
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatal(err)
	}
	// Cascade: the promoted owner leaves too; the last sharer is promoted.
	nw.Leave(2)
	if n3.Shared {
		t.Fatal("last sharer should be promoted after cascade")
	}
	// With only a 10 MHz channel live, a 100 MHz joiner must get clear
	// exclusive spectrum.
	n5 := joinOne(t, nw, 5, 80e6)
	if n5.Shared {
		t.Fatal("ample free spectrum: join should be exclusive")
	}
	if assignmentsOverlap(n5.Assignment, n3.Assignment) {
		t.Fatalf("fresh grant %v overlaps promoted node %v", n5.Assignment, n3.Assignment)
	}
	if err := nw.ValidateSpectrum(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelEvaluateMatchesSerial requires the worker-pool fan-out to be
// bit-identical to the serial path across seeds and mixed FDM/SDM loads.
func TestParallelEvaluateMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{1, 5, 9} {
		build := func(workers int) []Report {
			nw := newTestNetwork(seed)
			nw.Workers = workers
			placeNodes(t, nw, 12, 30e6) // 6 FDM + 6 SDM
			return nw.EvaluateSINR()
		}
		serial := build(1)
		parallel := build(8)
		if len(serial) != len(parallel) {
			t.Fatal("shape mismatch")
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Errorf("seed %d node %d: serial %+v != parallel %+v",
					seed, i, serial[i], parallel[i])
			}
		}
	}
}

// TestCouplingCacheReusedAcrossEnvSteps pins the caching contract:
// blocker motion re-evaluates links but leaves the interference graph
// alone — every stored edge, its weight and its order survive an
// environment step — and MoveNode rediscovers the moved node's edges in
// place, keeping the exact graph complete.
func TestCouplingCacheReusedAcrossEnvSteps(t *testing.T) {
	nw := newTestNetwork(62)
	nodes := placeNodes(t, nw, 6, 40e6)
	before := nw.EvaluateSINR()
	graph := func() []inEdge {
		var all []inEdge
		for _, n := range nw.Nodes {
			all = append(all, n.sp.in...)
		}
		return all
	}
	edges := graph()
	nw.Env.Step(0.1)
	nw.EvaluateSINR()
	if stepped := graph(); len(stepped) != len(edges) {
		t.Fatalf("blocker motion changed the edge count %d -> %d", len(edges), len(stepped))
	} else {
		for i := range edges {
			if stepped[i] != edges[i] {
				t.Fatalf("blocker motion rewrote edge %d", i)
			}
		}
	}
	if !nw.MoveNode(nodes[0].ID, channel.Pose{Pos: channel.Vec2{X: 5.5, Y: 3.5},
		Orientation: nodes[0].Pose.Orientation}) {
		t.Fatal("MoveNode missed a live node")
	}
	if e := edgeCount(nw); e != 6*5 {
		t.Errorf("MoveNode left %d of 30 pairs stored", e)
	}
	after := nw.EvaluateSINR()
	if before[0].SNRdB == after[0].SNRdB {
		t.Error("moved node's link should change")
	}
	if nw.MoveNode(999, channel.Pose{}) {
		t.Error("MoveNode should report a missing node")
	}
}

// TestCouplingNoPhantomSuppression pins the second verified bug: channels
// that overlap without any SDM party are a genuine collision and must
// couple at 0 dB, not get TMA suppression they never negotiated.
func TestCouplingNoPhantomSuppression(t *testing.T) {
	nw := newTestNetwork(63)
	nodes := placeNodes(t, nw, 2, 10e6)
	// Hand-craft the pre-fix churn state: node 2 parked on node 1's
	// channel with both claiming exclusive ownership.
	nodes[1].Assignment.CenterHz = nodes[0].Assignment.CenterHz
	if got := nw.couplingDB(nodes[0], nodes[1]); got != 0 {
		t.Errorf("colliding exclusive channels couple at %.1f dB, want 0", got)
	}
	// And the books cross-check must flag the inconsistency.
	if err := nw.ValidateSpectrum(); err == nil {
		t.Error("ValidateSpectrum should reject a hand-crafted collision")
	}
}

// TestCouplingAdjacencyByEdgeDistance pins the unequal-width fix: a 100 MHz
// channel's ACLR neighbourhood is decided by edge distance, not by the
// center-separation rule that tagged half the band as "adjacent".
func TestCouplingAdjacencyByEdgeDistance(t *testing.T) {
	nw := newTestNetwork(64)
	a := joinOne(t, nw, 1, 80e6) // [0,100) MHz of the band
	b := joinOne(t, nw, 2, 10e6) // [100,112.5): touches a
	c := joinOne(t, nw, 3, 10e6) // [112.5,125): one narrow channel away
	if got := nw.couplingDB(a, b); got != aclrAdjacentDB {
		t.Errorf("touching channels couple at %g dB, want adjacent %g", got, aclrAdjacentDB)
	}
	if got := nw.couplingDB(a, c); got != aclrFarDB {
		t.Errorf("separated channels couple at %g dB, want far %g", got, aclrFarDB)
	}
	if got := nw.couplingDB(b, c); got != aclrAdjacentDB {
		t.Errorf("narrow neighbours couple at %g dB, want adjacent %g", got, aclrAdjacentDB)
	}
}

// TestRunNotReentrant guards the one remaining in-run restriction: Run
// itself cannot nest. (Join and Leave during Run are now legal — they
// become membership events at the sim clock; see churn_test.go.)
func TestRunNotReentrant(t *testing.T) {
	nw := newTestNetwork(65)
	n := joinOne(t, nw, 1, 10e6)
	fired := false
	n.Traffic = trafficFunc(func() (float64, int) {
		if !fired {
			fired = true
			func() {
				defer func() {
					if recover() == nil {
						t.Error("nested Run should panic")
					}
				}()
				nw.Run(0.01, 0, 10)
			}()
		}
		return 0.02, 125
	})
	nw.Run(0.1, 0.05, 10)
	if !fired {
		t.Fatal("traffic callback never fired")
	}
}

// TestValidateSpectrumThroughHeavyChurn stress-drives the full lifecycle —
// joins, SDM fallbacks, leaves, promotions — and requires the spectrum
// books to stay consistent at every step.
func TestValidateSpectrumThroughHeavyChurn(t *testing.T) {
	nw := newTestNetwork(66)
	rng := stats.NewRNG(17)
	live := map[uint32]bool{}
	next := uint32(1)
	for op := 0; op < 200; op++ {
		if rng.Uint64()&1 == 1 || len(live) == 0 {
			id := next
			next++
			pos := channel.Vec2{X: rng.Uniform(1, 5.5), Y: rng.Uniform(0.5, 3.5)}
			if _, err := nw.Join(id, channel.Pose{Pos: pos}, rng.Uniform(5e6, 80e6), HDCamera(8)); err == nil {
				live[id] = true
			}
		} else {
			for id := range live {
				nw.Leave(id)
				delete(live, id)
				break
			}
		}
		if err := nw.ValidateSpectrum(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	// The network must still evaluate cleanly after the churn storm.
	if reports := nw.EvaluateSINR(); len(reports) != len(live) {
		t.Fatalf("reports %d != live %d", len(reports), len(live))
	}
}
