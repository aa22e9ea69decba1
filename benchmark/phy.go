package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"mmx"
	"mmx/internal/apdsp"
	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/dsp"
	"mmx/internal/modem"
	"mmx/internal/stats"
	"mmx/internal/tma"
	"mmx/internal/units"
)

// phy-ap is the paper's own contribution measured alone: (a) OTAM frames
// sent and decoded over single links, (b) a wideband capture of many FDM
// channels demultiplexed and demodulated by the AP's filterbank.

const (
	phyLinks      = 8
	phyPayloadLen = 27
	// Poses below this SNR, or closer than this to the equal-loss corner
	// where only the FSK dimension decodes, are not offered: at 12-19 dB
	// or depth < 0.1 about one frame in 200 fails its CRC, and the
	// workload must be one on which no operation fails.
	phyMinSNRdB = 20
	phyMinDepth = 0.25

	wideRate   = 250e6
	wideBins   = 250 // 1 MHz grid across the digitized band
	wideTaps   = 2751
	chanWidth  = 1e6
	chanRate   = 2e6
	chanSym    = 125e3
	chanFSK    = 500e3
	chanPayLen = 4
)

// phyRig is everything phy-ap's set-up builds.
type phyRig struct {
	links    []*mmx.Link
	payloads [][]byte // round-trip payloads, cycled

	wide     []complex128 // the wideband capture
	bank     *apdsp.FilterBank
	chanCfg  modem.Config
	lens     []int
	expected [][]byte // per channel
}

// phyLinksFromSeed draws node poses until phyLinks of them qualify: even
// ones in line of sight of the AP, odd ones (drawn nearer the AP) with a
// person standing on the sight line so a wall bounce competes with the
// attenuated direct path. Each link lives in its own room so blockers
// do not interact.
func phyLinksFromSeed(seed uint64) ([]*mmx.Link, error) {
	rng := stats.NewRNG(seed ^ 0x0a11)
	ap := mmx.Pose{X: 9.5, Y: 3, FacingRad: math.Pi}
	probe := bytes.Repeat([]byte{0xa5}, phyPayloadLen)
	var links []*mmx.Link
	for tries := 0; len(links) < phyLinks; tries++ {
		if tries > 4000 {
			return nil, fmt.Errorf("only %d of %d poses decode for seed %d", len(links), phyLinks, seed)
		}
		env := mmx.NewEnvironment(10, 6, rng.Uint64())
		blocked := len(links)%2 == 1
		x, y := rng.Uniform(1, 7.5), rng.Uniform(0.8, 5.2)
		if blocked {
			x = rng.Uniform(5.5, 8.7)
		}
		node := mmx.Facing(x, y, ap.X, ap.Y)
		node.FacingRad += rng.Uniform(-0.4, 0.4)
		if blocked {
			env.AddBlocker((x+ap.X)/2, (y+ap.Y)/2, 0, 0)
		}
		link := env.NewLink(node, ap)
		if q := link.Quality(); q.SNRdB < phyMinSNRdB || q.ASKDepth < phyMinDepth {
			continue
		}
		capture, err := link.Send(probe)
		if err != nil {
			continue
		}
		if got, err := link.Receive(capture, len(probe)); err != nil || !bytes.Equal(got.Payload, probe) {
			continue
		}
		links = append(links, link)
	}
	return links, nil
}

// synthesizeWide builds the capture: n simultaneous FDM nodes on a
// 1 MHz grid, each sending one frame at a seeded offset, plus noise.
func synthesizeWide(seed uint64, n int) (wide []complex128, offsets []float64, payloads [][]byte) {
	rng := stats.NewRNG(seed ^ 0x31de)
	offsets = make([]float64, n)
	payloads = make([][]byte, n)
	pads := make([]int, n)
	for i := range offsets {
		offsets[i] = float64(i-n/2) * chanWidth
		payloads[i] = make([]byte, chanPayLen)
		for j := range payloads[i] {
			payloads[i][j] = byte(rng.Uint64())
		}
		pads[i] = rng.Intn(4000)
	}
	frameSamples := modem.FrameBits(chanPayLen) * int(wideRate/chanSym)
	capLen := frameSamples + 6000
	workers := runtime.GOMAXPROCS(0)
	partials := make([][]complex128, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acc := make([]complex128, capLen)
			for i := g; i < n; i += workers {
				bits, err := modem.BuildFrame(payloads[i])
				if err != nil {
					panic(err) // a 4-byte payload always frames
				}
				cfg := modem.Config{SampleRate: wideRate, SymbolRate: chanSym,
					F0: offsets[i] - chanFSK/2, F1: offsets[i] + chanFSK/2}
				dsp.Add(acc, modem.PadRandomOffset(modem.Synthesize(cfg, bits, complex(0.1, 0), complex(0.9, 0)), pads[i]))
			}
			partials[g] = acc
		}(g)
	}
	wg.Wait()
	wide = partials[0]
	for _, p := range partials[1:] {
		dsp.Add(wide, p)
	}
	dsp.AddNoise(wide, 1e-5, stats.NewRNG(seed^0x0153))
	return wide, offsets, payloads
}

func buildPhyRig(seed uint64, channels int) (*phyRig, error) {
	links, err := phyLinksFromSeed(seed)
	if err != nil {
		return nil, err
	}
	rig := &phyRig{links: links, chanCfg: apdsp.ChannelConfig(chanRate, chanSym, chanFSK)}
	rng := stats.NewRNG(seed ^ 0xfa71)
	for i := 0; i < 64; i++ {
		p := make([]byte, phyPayloadLen)
		for j := range p {
			p[j] = byte(rng.Uint64())
		}
		rig.payloads = append(rig.payloads, p)
	}
	var offsets []float64
	rig.wide, offsets, rig.expected = synthesizeWide(seed, channels)
	rig.bank = apdsp.NewFilterBank(wideRate, units.ISM24GHzCenter, wideBins)
	rig.bank.Taps = wideTaps
	plan := make([]apdsp.BankChannel, channels)
	rig.lens = make([]int, channels)
	for i := range plan {
		plan[i] = apdsp.BankChannel{ChannelHz: units.ISM24GHzCenter + offsets[i]}
		rig.lens[i] = chanPayLen
	}
	if err := rig.bank.Configure(chanWidth, chanRate, plan); err != nil {
		return nil, err
	}
	return rig, nil
}

func runPhyAP(w workloadDef, cfg config, tr *tracer) *result {
	res := newResult(w, cfg)
	begin := time.Now()
	trips, sweeps, channels := cfg.count(100, 8), cfg.count(2, 1), cfg.count(200, 8)
	ln := tr.lane(4 * (trips + sweeps) * cfg.repeats(40))
	root := ln.begin(w.Name, 0)
	defer func() {
		ln.end(root)
		res.finish(w, cfg, time.Since(begin), tr)
	}()

	// Set-up is timed before the first repeat and again, on a rig of its
	// own that is dropped at once, after every tenth repeat, so that the
	// samples spread over the run the way the repeats do.
	var setupS, heapB []float64
	setup := func() *phyRig {
		base := liveHeap()
		t0 := time.Now()
		sp := ln.begin("setup", root.id)
		rig, err := buildPhyRig(cfg.Seed, channels)
		ln.end(sp)
		setupS = append(setupS, time.Since(t0).Seconds())
		res.check(err == nil, "setup %d: %v", len(setupS), err)
		if err != nil {
			return nil
		}
		// The capture, the filterbank and the links, per channel.
		heapB = append(heapB, float64(liveHeap()-base)/float64(channels))
		return rig
	}
	rig := setup()
	if rig == nil {
		return res
	}

	n := cfg.repeats(40)
	res.Repeats = n
	var linkPerS, apPerS, tracedLinkPerS []float64
	sent := 0
	for k := 0; k <= n; k++ { // repeat 0 is the discarded warm-up
		var rl *lane
		if cfg.Traced && k > 0 && k%2 == 0 {
			rl = ln
		}
		rep := rl.begin("repeat", root.id)

		phase := rl.begin("link", rep.id)
		bad := 0
		t0 := time.Now()
		for i := 0; i < trips; i++ {
			link, payload := rig.links[sent%len(rig.links)], rig.payloads[sent%len(rig.payloads)]
			sent++
			sp := rl.begin("core.Link.Send", phase.id)
			capture, err := link.Send(payload)
			rl.end(sp)
			if err != nil {
				bad++
				continue
			}
			sp = rl.begin("core.Link.Receive", phase.id)
			got, err := link.Receive(capture, len(payload))
			rl.end(sp)
			if err != nil || !bytes.Equal(got.Payload, payload) {
				bad++
			}
		}
		linkS := time.Since(t0).Seconds()
		rl.endCount(phase, int64(trips))
		res.attempt(trips)
		res.failf(bad, "repeat %d: %d of %d OTAM frames did not decode to the bytes sent", k, bad, trips)

		phase = rl.begin("ap", rep.id)
		decoded := 0
		t0 = time.Now()
		for i := 0; i < sweeps; i++ {
			sp := rl.begin("apdsp.FilterBank.ReceiveAll", phase.id)
			frames, err := rig.bank.ReceiveAll(rig.wide, rig.chanCfg, rig.lens, 0)
			rl.end(sp)
			if err != nil {
				continue
			}
			for c, fs := range frames {
				if len(fs) > 0 && bytes.Equal(fs[0].Payload, rig.expected[c]) {
					decoded++
				}
			}
		}
		apS := time.Since(t0).Seconds()
		rl.endCount(phase, int64(decoded))
		rl.end(rep)
		res.attempt(sweeps * channels)
		res.failf(sweeps*channels-decoded, "repeat %d: %d of %d channel frames did not decode", k, sweeps*channels-decoded, sweeps*channels)

		if k%10 == 0 {
			setup()
		}
		switch {
		case k == 0:
		case rl != nil:
			tracedLinkPerS = append(tracedLinkPerS, float64(trips)/linkS)
		default:
			linkPerS = append(linkPerS, float64(trips)/linkS)
			apPerS = append(apPerS, float64(decoded)/apS)
		}
	}
	res.SetupRepeats, res.Warmup = len(setupS), 1
	res.set("setup_s", setupS...)
	res.set("heap_b_per_node", heapB...)
	res.set("link_frames_per_s", linkPerS...)
	res.set("ap_frames_per_s", apPerS...)
	if cfg.Traced {
		res.set("core.tx_us", median(tr.durationsUS("core.Link.Send")))
		res.set("core.rx_us", median(tr.durationsUS("core.Link.Receive")))
		res.set("apdsp.receive_all_ms", median(tr.durationsUS("apdsp.FilterBank.ReceiveAll"))/1e3)
		res.set("trace_overhead_frac", median(linkPerS)/median(tracedLinkPerS)-1)
		probePHY(res, cfg, rig, ln, root.id)
	}
	return res
}

// probePHY times the DSP building blocks under phy-ap on its own
// signals: one OTAM frame's synthesis, demodulation and digitisation,
// the FFT and FIR kernels, the filterbank sweep alone, one channel's
// stream receiver, and the TMA mix and extract.
func probePHY(res *result, cfg config, rig *phyRig, ln *lane, parent int32) {
	sp := ln.begin("probe/phy", parent)
	defer ln.end(sp)
	rng := stats.NewRNG(cfg.Seed ^ 0x9b1)
	env := channel.NewEnvironment(channel.NewRoom(10, 6, stats.NewRNG(cfg.Seed)), units.ISM24GHzCenter)
	link := core.NewLink(env,
		channel.Pose{Pos: channel.Vec2{X: 2, Y: 3}},
		channel.Pose{Pos: channel.Vec2{X: 9.5, Y: 3}, Orientation: math.Pi})
	mcfg := link.Cfg.Modem
	payload := rig.payloads[0]
	bits, err := modem.BuildFrame(payload)
	capture, err2 := link.TransmitOTAM(payload, 20, rng)
	if err != nil || err2 != nil {
		res.failf(1, "phy probe: %v %v", err, err2)
		return
	}
	ev := link.Evaluate()
	frame := make([]complex128, len(bits)*mcfg.SamplesPerSymbol())
	const calls = 50
	res.set("modem.synth_us", perCall(probeBatches, calls, 1e6, func() {
		for i := 0; i < calls; i++ {
			modem.SynthesizeInto(frame, mcfg, bits, ev.G0, ev.G1)
		}
	})...)
	demod := modem.NewDemodulator(mcfg)
	res.set("modem.demod_us", perCall(probeBatches, calls, 1e6, func() {
		for i := 0; i < calls; i++ {
			if _, _, err := demod.Receive(capture, len(payload)); err != nil {
				res.failf(1, "phy probe: demod: %v", err)
				return
			}
		}
	})...)
	res.set("rf.digitize_us", perCall(probeBatches, calls, 1e6, func() {
		for i := 0; i < calls; i++ {
			core.Digitize(capture)
		}
	})...)
	fft := dsp.PlanFFT(256)
	fx, fy := make([]complex128, 256), make([]complex128, 256)
	dsp.AddNoise(fx, 1, rng)
	res.set("dsp.fft256_us", perCall(probeBatches, 2000, 1e6, func() {
		for i := 0; i < 2000; i++ {
			fft.Forward(fy, fx)
		}
	})...)
	fir := dsp.LowPass(mcfg.SymbolRate, mcfg.SampleRate, 63)
	filtered := make([]complex128, len(capture))
	res.set("dsp.fir_us", perCall(probeBatches, calls, 1e6, func() {
		for i := 0; i < calls; i++ {
			fir.FilterInto(filtered, capture)
		}
	})...)

	outs, err := rig.bank.ExtractAll(rig.wide)
	if err != nil {
		res.failf(1, "phy probe: ExtractAll: %v", err)
		return
	}
	res.set("apdsp.extract_all_ms", perCall(probeBatches, 2, 1e3, func() {
		for i := 0; i < 2; i++ {
			s := ln.begin("apdsp.FilterBank.ExtractAllInto", sp.id)
			outs, _ = rig.bank.ExtractAllInto(outs, rig.wide)
			ln.end(s)
		}
	})...)
	// Counted apart from the timed batches, whose spans allocate.
	before := snapRuntime().mallocs
	for i := 0; i < probeBatches; i++ {
		outs, _ = rig.bank.ExtractAllInto(outs, rig.wide)
	}
	res.set("apdsp.allocs_per_extract", float64(snapRuntime().mallocs-before)/probeBatches)
	stream := modem.NewStreamReceiver(rig.chanCfg)
	res.set("modem.stream_rx_us", perCall(probeBatches, len(outs), 1e6, func() {
		for _, bb := range outs {
			stream.ReceiveAll(bb, chanPayLen)
		}
	})...)

	arr := tma.NewSDMArray(8, 25e6)
	sources := make([]tma.Source, 4)
	for i := range sources {
		bb := make([]complex128, 20000)
		dsp.AddNoise(bb, 1, rng)
		sources[i] = tma.Source{Theta: rng.Uniform(-1, 1), Baseband: bb}
	}
	var mixed, extracted []complex128
	res.set("tma.mix_ms", perCall(probeBatches, 1, 1e3, func() { mixed = arr.MixInto(mixed, sources, wideRate) })...)
	res.set("tma.extract_ms", perCall(probeBatches, 1, 1e3, func() { extracted = arr.ExtractInto(extracted, mixed, 1, wideRate) })...)
}
