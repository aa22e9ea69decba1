package mmx

// One benchmark per paper artifact (DESIGN.md §3). Each bench regenerates
// its figure/table from scratch per iteration and reports the headline
// number as a custom metric, so `go test -bench=. -benchmem` doubles as
// the reproduction harness's smoke run. cmd/mmx-bench prints the full
// rows/series. No rung is gated on its wall clock — the end-to-end
// figures are BENCHMARK.json's — and where a rung's allocation count is a
// promise, a Test…Allocs beside it shares the fixture and asserts it under
// plain `go test`.

import (
	"fmt"
	"math"
	"runtime/debug"
	"testing"

	"mmx/internal/apdsp"
	"mmx/internal/dsp"
	"mmx/internal/experiments"
	"mmx/internal/modem"
	"mmx/internal/stats"
	"mmx/internal/units"
)

func BenchmarkFig7VCOTuning(b *testing.B) {
	var last experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig7(16)
	}
	b.ReportMetric(last.FreqGHz[len(last.FreqGHz)-1]-last.FreqGHz[0], "GHz-span")
}

func BenchmarkFig8BeamPatterns(b *testing.B) {
	var last experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig8(720)
	}
	b.ReportMetric(last.OrthogonalityDB, "dB-orthogonality")
}

func BenchmarkFig9Waveforms(b *testing.B) {
	ok := 0
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(uint64(i))
		if r.DecodedA && r.DecodedB {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "decode-rate")
}

func BenchmarkFig10SNRMap(b *testing.B) {
	var last experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig10(uint64(i+1), 0.25)
	}
	b.ReportMetric(100*last.FracAbove10With, "pct≥10dB-with-OTAM")
	b.ReportMetric(100*last.FracBelow5Without, "pct<5dB-without")
}

func BenchmarkFig11BERCDF(b *testing.B) {
	var last experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig11(uint64(i+7), 30)
	}
	b.ReportMetric(last.MedianWith, "median-BER-with")
	b.ReportMetric(last.MedianWithout, "median-BER-without")
}

func BenchmarkFig12Range(b *testing.B) {
	var last experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig12(uint64(i+3), 18, 1)
	}
	b.ReportMetric(last.At18mFacing, "dB-at-18m-facing")
}

func BenchmarkFig13MultiNode(b *testing.B) {
	var last experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		last = experiments.Fig13(uint64(i+5), []int{1, 2, 5, 10, 20}, 3)
	}
	b.ReportMetric(last.MeanAt20, "dB-mean-at-20-nodes")
}

func BenchmarkTable1Comparison(b *testing.B) {
	var nj float64
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		nj = t.Platforms[0].EnergyPerBitNJ()
	}
	b.ReportMetric(nj, "nJ-per-bit")
}

func BenchmarkMicroMaxRate(b *testing.B) {
	var r experiments.MicroResult
	for i := 0; i < b.N; i++ {
		r = experiments.Micro()
	}
	b.ReportMetric(r.MaxBitRateBps/1e6, "Mbps-max")
}

func BenchmarkMicroEnergyPerBit(b *testing.B) {
	var r experiments.MicroResult
	for i := 0; i < b.N; i++ {
		r = experiments.Micro()
	}
	b.ReportMetric(r.EnergyPerBitNJ, "nJ-per-bit")
}

func BenchmarkAblationBeams(b *testing.B) {
	var r experiments.AblationBeamsResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationBeams(uint64(i+11), 200)
	}
	b.ReportMetric(100*r.FracIndistinguishableNonOrtho, "pct-indist-nonortho")
	b.ReportMetric(100*r.FracIndistinguishableOrtho, "pct-indist-ortho")
}

func BenchmarkAblationModality(b *testing.B) {
	var r experiments.AblationModalityResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationModality(uint64(i+13), 200)
	}
	b.ReportMetric(100*r.FracDecodableJoint, "pct-joint-decodable")
}

func BenchmarkAblationTMA(b *testing.B) {
	var r experiments.AblationTMAResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationTMA(uint64(i+17), 100)
	}
	b.ReportMetric(r.Rows[len(r.Rows)-1].MeanSuppressionDB, "dB-suppression-16elem")
}

func BenchmarkAblationSDM(b *testing.B) {
	var r experiments.AblationSDMResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationSDM(uint64(i+19), 16, 40e6)
	}
	b.ReportMetric(float64(r.AdmittedHybrid), "nodes-admitted")
	b.ReportMetric(r.MeanSINRHybrid, "dB-mean-SINR")
}

func BenchmarkAblationSearch(b *testing.B) {
	var r experiments.AblationSearchResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationSearch(uint64(i + 23))
	}
	b.ReportMetric(float64(r.ExhaustiveProbes), "probes-exhaustive")
	b.ReportMetric(r.SearchEnergyPerDayJ, "J-per-day-searching")
}

// End-to-end pipeline benches: the per-frame cost of the actual
// modulation/demodulation path, the number that would gate a real-time
// software AP.

// otamRoundTrip returns one OTAM frame round trip through the facade —
// Send then Receive on a 5 m link in a 10×6 m room, node facing the AP.
func otamRoundTrip(tb testing.TB) func() {
	env := NewEnvironment(10, 6, 1)
	link := env.NewLink(Facing(1, 3, 6, 3), Pose{X: 6, Y: 3, FacingRad: 3.14159})
	payload := []byte("benchmark frame payload....")
	return func() {
		capture, err := link.Send(payload)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := link.Receive(capture, len(payload)); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkOTAMFrameRoundtrip(b *testing.B) {
	roundTrip := otamRoundTrip(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// TestOTAMFrameRoundtripAllocs pins the facade's frame round trip at
// three allocations. The DSP scratch comes from sync.Pools, which the
// race detector leaks and every collection empties, so the count is
// taken without the detector and with the collector off; the first
// calls at each new capture length build an FFT plan, which the average
// over 100 round trips absorbs.
func TestOTAMFrameRoundtripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(100, otamRoundTrip(t)); allocs > 3 {
		t.Errorf("frame round trip allocates %v times, want ≤ 3", allocs)
	}
}

// settledNetwork joins size camera nodes into the lab room at a fixed
// pattern — all FDM at 20, dense SDM sharing from 100 — and reads Reports
// once, so the engine's dirty set is empty.
func settledNetwork(tb testing.TB, size, workers int) *Network {
	env := NewLabEnvironment(2)
	nw := env.NewNetwork(Pose{X: 0.3, Y: 2}, 3)
	nw.SetWorkers(workers)
	for i := 1; i <= size; i++ {
		x := 1 + float64(i%5)
		y := 0.5 + float64(i%4)*0.8
		if _, err := nw.Join(uint32(i), Facing(x, y, 0.3, 2), 10e6, CameraTraffic(8)); err != nil {
			tb.Fatal(err)
		}
	}
	nw.Reports()
	return nw
}

// BenchmarkNetworkSINREvaluation measures Reports on a settled network
// at growing scale. Nothing moves between calls, so each call copies the
// cached per-node reports — the floor of what a caller pays per snapshot;
// the link re-evaluations a blocker tick costs are BenchmarkRegionMap's
// rung. The serial variant pins the single-worker cost.
func BenchmarkNetworkSINREvaluation(b *testing.B) {
	for _, size := range []int{20, 100, 500} {
		for _, workers := range []int{0, 1} {
			name := fmt.Sprintf("nodes=%d", size)
			if workers == 1 {
				name += "/serial"
			}
			b.Run(name, func(b *testing.B) {
				nw := settledNetwork(b, size, workers)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					nw.Reports()
				}
			})
		}
	}
}

// TestNetworkSINREvaluationAllocs pins Reports on a settled network at
// two allocations per call whatever the worker count: nothing is stale,
// so no worker starts.
func TestNetworkSINREvaluationAllocs(t *testing.T) {
	for _, size := range []int{20, 100, 500} {
		for _, workers := range []int{0, 1} {
			nw := settledNetwork(t, size, workers)
			if allocs := testing.AllocsPerRun(100, func() { nw.Reports() }); allocs != 2 {
				t.Errorf("%d nodes, Workers=%d: settled Reports allocates %v times, want 2", size, workers, allocs)
			}
		}
	}
}

// BenchmarkAPWidebandDemux measures the AP's channel-demultiplexing front
// end. The bank rungs run the one-pass polyphase filterbank
// (ExtractAllInto — every channel from a single sweep, on one lane) at
// growing channel counts: per output sample the branch MACs and the FFT
// are shared by every channel and only a twiddled readout is per channel,
// so cost barely moves with the channel count. bins=256 keeps the FFT on
// the in-place radix-2 path, which is pool-free: internal/apdsp's
// TestBankHotPathAllocationFree pins it at 0 allocs/op. bins=250 is the
// shipped 1 MHz grid (2751 taps, decimation 125, the mixed-radix FFT).
//
// The receive rung is ReceiveAll on the default pool over the shipped
// grid carrying one 4-byte frame per channel: the sweep fanned out over
// output instants, then every channel's stream receiver.
func BenchmarkAPWidebandDemux(b *testing.B) {
	const (
		rate    = 250e6
		samples = 32768
	)
	type grid struct {
		bins, taps int // taps 0 keeps the bank default
		width      float64
		decim      int
	}
	shipped := grid{bins: 250, taps: 2751, width: 1e6, decim: 125}
	center := units.ISM24GHzCenter
	newBank := func(b *testing.B, g grid, n int) *apdsp.FilterBank {
		bank := apdsp.NewFilterBank(rate, center, g.bins)
		bank.Taps = g.taps
		plan := make([]apdsp.BankChannel, n)
		for i := range plan {
			plan[i] = apdsp.BankChannel{ChannelHz: center + float64(i-n/2)*rate/float64(g.bins)}
		}
		if err := bank.Configure(g.width, rate/float64(g.decim), plan); err != nil {
			b.Fatal(err)
		}
		return bank
	}
	x := make([]complex128, samples)
	dsp.AddNoise(x, 1.0, stats.NewRNG(42))
	for _, g := range []grid{{bins: 256, width: 1.5e6, decim: 128}, shipped} {
		for _, n := range []int{10, 50, 200} {
			b.Run(fmt.Sprintf("bins=%d/channels=%d/bank", g.bins, n), func(b *testing.B) {
				bank := newBank(b, g, n)
				dsts, err := bank.ExtractAll(x)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bank.ExtractAllInto(dsts, x); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	const n = 200
	b.Run(fmt.Sprintf("bins=%d/channels=%d/receive", shipped.bins, n), func(b *testing.B) {
		const sym, fsk = 125e3, 500e3
		rng := stats.NewRNG(7)
		wide := make([]complex128, modem.FrameBits(4)*int(rate/sym)+6000)
		payloads := make([][]byte, n)
		lens := make([]int, n)
		for i := range payloads {
			payloads[i], lens[i] = []byte(fmt.Sprintf("n%03d", i)), 4
			bits, err := modem.BuildFrame(payloads[i])
			if err != nil {
				b.Fatal(err)
			}
			offset := float64(i-n/2) * shipped.width
			cfg := modem.Config{SampleRate: rate, SymbolRate: sym, F0: offset - fsk/2, F1: offset + fsk/2}
			dsp.Add(wide, modem.PadRandomOffset(modem.Synthesize(cfg, bits, complex(0.1, 0), complex(0.9, 0)), rng.Intn(4000)))
		}
		dsp.AddNoise(wide, 1e-5, rng)
		bank := newBank(b, shipped, n)
		cfg := apdsp.ChannelConfig(rate/float64(shipped.decim), sym, fsk)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frames, err := bank.ReceiveAll(wide, cfg, lens, 0)
			if err != nil {
				b.Fatal(err)
			}
			for c, fs := range frames {
				if len(fs) != 1 || string(fs[0].Payload) != string(payloads[c]) {
					b.Fatalf("channel %d: %d frames, want its one payload", c, len(fs))
				}
			}
		}
		b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "frames/s")
	})
}

func BenchmarkExtFEC(b *testing.B) {
	var r experiments.ExtFECResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtFEC(uint64(i+1), 100)
	}
	b.ReportMetric(float64(r.DeliveredCoded)/float64(r.Trials), "coded-delivery")
	b.ReportMetric(float64(r.DeliveredUncoded)/float64(r.Trials), "uncoded-delivery")
}

func BenchmarkExtNarrowBeam(b *testing.B) {
	var r experiments.ExtNarrowBeamResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtNarrowBeam(uint64(i + 2))
	}
	b.ReportMetric(r.Rows[len(r.Rows)-1].RangeAt10dBm, "m-range-8elem")
}

func BenchmarkExtBackside(b *testing.B) {
	var r experiments.ExtBacksideResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtBackside(uint64(i + 3))
	}
	b.ReportMetric(r.BackSNRExtended-r.BackSNRStandard, "dB-back-gain")
}

func BenchmarkExt60GHz(b *testing.B) {
	var r experiments.Ext60GHzResult
	for i := 0; i < b.N; i++ {
		r = experiments.Ext60GHz(uint64(i + 4))
	}
	b.ReportMetric(float64(r.Capacity60), "channels-60ghz")
}

func BenchmarkExtMobility(b *testing.B) {
	var r experiments.ExtMobilityResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtMobility(uint64(i + 5))
	}
	b.ReportMetric(100*r.OTAMUsableFrac, "pct-otam-usable")
	b.ReportMetric(float64(r.Searches), "searches")
}

func BenchmarkExtRate(b *testing.B) {
	var r experiments.ExtRateResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtRate(uint64(i+5), 60, 3, 1e-6)
	}
	b.ReportMetric(r.RangeAt1Mbps, "m-range-1Mbps")
}

func BenchmarkAblationFilter(b *testing.B) {
	var r experiments.AblationFilterResult
	for i := 0; i < b.N; i++ {
		r = experiments.AblationFilter(uint64(i + 3))
	}
	last := r.Rows[len(r.Rows)-1]
	b.ReportMetric(last.SINRWithFilter-last.SINRNoFilter, "dB-filter-gain-26GHz")
}

// BenchmarkNetworkScale is the billions-of-things scaling gate: an
// end-to-end churning deployment — joins, a traffic-serving Run with
// scheduled leave/join churn, and a final full SINR evaluation — at 1k,
// 10k, 100k and 1M nodes. Node density is constant (the field side grows
// as √n), so the audible neighborhood around the AP stays bounded while
// the membership grows by 1000×; the sparse coupling core (CouplingAuto
// crosses over below the 1k rung) is what keeps the whole run
// near-linear. The blockers=8 variants isolate the environment-tick cost
// under walking people — region-scoped invalidation re-evaluates only
// the nodes the walkers' swept corridors can reach. Nothing here is
// gated: allocs/op moves by tens run to run with worker start-up, so the
// per-join count is bounded at Workers=1 by internal/simnet's
// TestJoinAllocs instead.
func BenchmarkNetworkScale(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchNetworkScale(b, size)
			}
		})
	}
	b.Run("nodes=100000/aps=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchNetworkScaleAPs(b, 100000, 16)
		}
	})
	for _, size := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("nodes=%d/blockers=8", size), func(b *testing.B) {
			benchNetworkBlockers(b, size)
		})
	}
}

func benchNetworkScale(b *testing.B, size int) {
	// ~6 km side per 1k nodes keeps the per-victim audible source set at
	// a few hundred regardless of n (the audibility radius for these
	// telemetry channels is ≈1.7 km).
	side := 6000 * math.Sqrt(float64(size)/1000)
	env := NewEnvironment(side, side, 11)
	nw := env.NewNetwork(Pose{X: side / 2, Y: side / 2}, 13)
	// Sparse from the first join: the auto crossover would pay the dense
	// path's O(members) host-channel scans and O(n²) matrix growth for
	// the first 768 joins — measurable noise at 1k, pure waste at 100k.
	nw.SetCouplingMode(CouplingSparse)
	nw.SetLeaseTTL(0, 0) // no keepalive cycle: the bench pins churn + traffic cost
	rng := stats.NewRNG(99)
	place := func() Pose {
		return Facing(rng.Uniform(1, side-1), rng.Uniform(1, side-1), side/2, side/2)
	}
	id := uint32(1)
	for i := 0; i < size; i++ {
		if _, err := nw.Join(id, place(), 1e6, TelemetryTraffic(5)); err != nil {
			b.Fatal(err)
		}
		id++
	}
	// Membership churn through the run: leaves spread across the whole
	// ID range (owners and sharers alike), each paired with a fresh join.
	const churn = 100
	for k := 0; k < churn; k++ {
		at := 0.02 + 4.5*float64(k)/churn
		nw.ScheduleLeave(at, uint32(1+k*(size/churn)))
		nw.ScheduleJoin(at+0.005, id, place(), 1e6, TelemetryTraffic(5))
		id++
	}
	st := nw.Run(5, 1, 0)
	if st.Joins != churn || st.Leaves != churn {
		b.Fatalf("churn incomplete: %d joins, %d leaves", st.Joins, st.Leaves)
	}
	if reports := nw.Reports(); len(reports) != size {
		b.Fatalf("membership drifted: %d nodes", len(reports))
	}
}

// benchNetworkScaleAPs is the multi-AP rung: the same field and density
// as benchNetworkScale, but served by a √naps × √naps grid of APs with a
// factor-4 frequency-reuse plan and hysteresis roaming armed. Each join
// associates with its nearest AP, so the sparse core runs naps shards
// with cross-shard co-channel edges — the number this rung pins is the
// sharded settle plus the per-tick roam screen over the whole fleet.
func benchNetworkScaleAPs(b *testing.B, size, naps int) {
	side := 6000 * math.Sqrt(float64(size)/1000)
	g := int(math.Sqrt(float64(naps)))
	if g*g != naps {
		b.Fatalf("naps %d is not a square grid", naps)
	}
	apAt := func(k int) (x, y float64) {
		return (float64(k%g) + 0.5) * side / float64(g),
			(float64(k/g) + 0.5) * side / float64(g)
	}
	env := NewEnvironment(side, side, 11)
	x0, y0 := apAt(0)
	nw := env.NewNetwork(Facing(x0, y0, side/2, side/2), 13)
	for k := 1; k < naps; k++ {
		x, y := apAt(k)
		if _, err := nw.AddAP(Facing(x, y, side/2, side/2)); err != nil {
			b.Fatal(err)
		}
	}
	if err := nw.PlanReuse(4); err != nil {
		b.Fatal(err)
	}
	nw.SetRoamingPolicy(&RoamPolicy{HysteresisDB: 3})
	nw.SetCouplingMode(CouplingSparse)
	nw.SetLeaseTTL(0, 0)
	rng := stats.NewRNG(99)
	place := func() Pose {
		x, y := rng.Uniform(1, side-1), rng.Uniform(1, side-1)
		bx, by := apAt(0)
		bd := math.Hypot(x-bx, y-by)
		for k := 1; k < naps; k++ {
			ax, ay := apAt(k)
			if d := math.Hypot(x-ax, y-ay); d < bd {
				bx, by, bd = ax, ay, d
			}
		}
		return Facing(x, y, bx, by)
	}
	id := uint32(1)
	for i := 0; i < size; i++ {
		if _, err := nw.Join(id, place(), 1e6, TelemetryTraffic(5)); err != nil {
			b.Fatal(err)
		}
		id++
	}
	const churn = 100
	for k := 0; k < churn; k++ {
		at := 0.02 + 4.5*float64(k)/churn
		nw.ScheduleLeave(at, uint32(1+k*(size/churn)))
		nw.ScheduleJoin(at+0.005, id, place(), 1e6, TelemetryTraffic(5))
		id++
	}
	st := nw.Run(5, 1, 0)
	if st.Joins != churn || st.Leaves != churn {
		b.Fatalf("churn incomplete: %d joins, %d leaves", st.Joins, st.Leaves)
	}
	if reports := nw.Reports(); len(reports) != size {
		b.Fatalf("membership drifted: %d nodes", len(reports))
	}
}

// benchNetworkBlockers times the blocker-heavy steady state: the fleet
// joins untimed, eight people walk in orbits 50–200 m from the AP —
// right across the sight lines, where every node→AP path converges — and
// the timed section is a traffic-serving Run whose 40 env ticks each
// move the crowd. Each tick re-evaluates only the nodes whose
// propagation corridors a swept capsule crosses.
func benchNetworkBlockers(b *testing.B, size int) {
	env, nw, side := benchTelemetryFleet(b, size, 5)
	for k := 0; k < 8; k++ {
		ang := 2 * math.Pi * float64(k) / 8
		r := 50 + 150*float64(k)/7
		env.AddBlocker(side/2+r*math.Cos(ang), side/2+r*math.Sin(ang),
			-1.5*math.Sin(ang), 1.5*math.Cos(ang))
	}
	nw.Reports() // settle the post-join picture untimed
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Run(2, 0.05, 0)
	}
}

// BenchmarkRunTraffic times Run and nothing else on a frame-dispatch-
// bound fleet: 12 000 telemetry nodes at a frame per 0.1 s on the
// BenchmarkNetworkScale field, admitted before the timer starts. The
// field is too wide for any ladder step to close, so an iteration is
// ≈240 k outage frames through the event engine — the scale rungs above
// spend two thirds of their time in Join and cannot see it. The engine
// allocates nothing per frame (internal/simnet's
// TestFrameDispatchAllocatesNothing). allocs/op is not Run's own count:
// a collection during a Run empties the sync.Pool the link evaluation
// draws its path scratch from, and refilling it adds a few mallocs, so
// the figure moves with GC timing. The contract for Run's 14 is
// internal/simnet's TestRunAllocsIndependentOfFleetSize, which turns
// collection off while it counts.
func BenchmarkRunTraffic(b *testing.B) {
	_, nw, _ := benchTelemetryFleet(b, 12000, 0.1)
	nw.Reports() // settle the post-join picture untimed
	// The two env ticks run serially: starting worker goroutines mallocs
	// or not depending on the runtime's free list.
	nw.SetWorkers(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Run(2, 1, 0)
	}
}

// benchTelemetryFleet joins size telemetry nodes (one frame per
// meanIntervalS) on the constant-density BenchmarkNetworkScale field —
// single AP at the centre, sparse coupling, no keepalive cycle.
func benchTelemetryFleet(b *testing.B, size int, meanIntervalS float64) (*Environment, *Network, float64) {
	side := 6000 * math.Sqrt(float64(size)/1000)
	env := NewEnvironment(side, side, 11)
	nw := env.NewNetwork(Pose{X: side / 2, Y: side / 2}, 13)
	nw.SetCouplingMode(CouplingSparse)
	nw.SetLeaseTTL(0, 0)
	rng := stats.NewRNG(99)
	for i := 0; i < size; i++ {
		pose := Facing(rng.Uniform(1, side-1), rng.Uniform(1, side-1), side/2, side/2)
		if _, err := nw.Join(uint32(i+1), pose, 1e6, TelemetryTraffic(meanIntervalS)); err != nil {
			b.Fatal(err)
		}
	}
	return env, nw, side
}

func BenchmarkExtScale(b *testing.B) {
	var r experiments.ExtScaleResult
	for i := 0; i < b.N; i++ {
		r = experiments.ExtScale(uint64(i+1), 40)
	}
	b.ReportMetric(100*r.Usable60, "pct-usable-60GHz")
	b.ReportMetric(100*r.Usable24, "pct-usable-24GHz")
}
