// Command mmx-ap demonstrates the software access point end to end. The
// default scene synthesizes a wideband 250 MS/s capture containing four
// simultaneous camera nodes — FDM channels plus co-channel nodes separated
// by the time-modulated array — and runs the one-pass AP receive pipeline:
// a single polyphase filterbank sweep yields every node's baseband (TMA
// harmonic shifts composed into the channel map), and both the sweep's
// output instants and the per-channel stream demodulators fan out across
// a worker pool.
//
// The -fdm N mode scales the same pipeline sideways: N simultaneous FDM
// nodes on a 1 MHz grid across the whole digitized band, demultiplexed in
// one pass.
//
// Usage:
//
//	mmx-ap
//	mmx-ap -seed 7
//	mmx-ap -fdm 200
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"mmx/internal/apdsp"
	"mmx/internal/dsp"
	"mmx/internal/modem"
	"mmx/internal/par"
	"mmx/internal/stats"
	"mmx/internal/tma"
	"mmx/internal/units"
)

const (
	wideRate = 250e6
	chanRate = 25e6
	symRate  = 1e6
	fskSplit = 500e3
	fpHz     = 25e6 // TMA switching rate
	sdmBins  = 50   // filterbank grid for the SDM scene: 5 MHz bins
)

func main() {
	seed := flag.Uint64("seed", 1, "noise seed")
	fdm := flag.Int("fdm", 0, "run the N-channel wideband FDM demo (e.g. 200) instead of the SDM scene")
	workers := flag.Int("workers", 0, "receive workers: filterbank extraction and demodulation (0 = GOMAXPROCS)")
	flag.Parse()
	if *fdm < 0 || *fdm > 240 {
		fmt.Fprintf(os.Stderr, "mmx-ap: bad -fdm %d (want 0 for the SDM scene, or 1..240 channels on the 1 MHz grid inside the 250 MHz band)\n", *fdm)
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "mmx-ap: bad -workers %d (want 0 for GOMAXPROCS, or at least 1)\n", *workers)
		os.Exit(2)
	}
	if *fdm > 0 {
		fdmDemo(*fdm, *seed, *workers)
		return
	}
	sdmDemo(*seed, *workers)
}

type txNode struct {
	name     string
	payload  string
	channel  float64 // RF Hz
	thetaDeg float64 // angle of arrival at the AP array
	harmonic int     // TMA harmonic the angle hashes onto
	g0, g1   complex128
	pad      int
}

func sdmDemo(seed uint64, workers int) {
	center := units.ISM24GHzCenter
	// The TMA shifts every node by its angle's harmonic (±25 MHz per
	// step), so the AP plans channels such that the post-TMA frequencies
	// C + m·f_p stay disjoint — and, for the filterbank, on the 5 MHz
	// grid: door → −80, yard → −55+50 = −5, hall → +55+25 = +80,
	// gate → +55−25 = +30 MHz.
	nodes := []txNode{
		{"cam-door", "door: person at entrance", center - 80e6, 0, 0, complex(0.10, 0), complex(0.90, 0), 700},
		{"cam-yard", "yard: all quiet", center - 55e6, 30, 2, complex(0.75, 0.1), complex(0.20, 0), 1900},
		{"cam-hall", "hall: motion cleared", center + 55e6, 14.5, 1, complex(0.12, 0), complex(0.88, 0), 400},
		{"cam-gate", "gate: delivery arrived", center + 55e6, -14.5, -1, complex(0.80, 0), complex(0.15, 0), 2600},
	}

	// Build each node's wideband waveform (the VCO sits on its channel).
	arr := tma.NewSDMArray(8, fpHz)
	var captures []tma.Source
	maxLen := 0
	for _, n := range nodes {
		bits, err := modem.BuildFrame([]byte(n.payload))
		if err != nil {
			panic(err)
		}
		cfg := modem.Config{
			SampleRate: wideRate, SymbolRate: symRate,
			F0: (n.channel - center) - fskSplit/2,
			F1: (n.channel - center) + fskSplit/2,
		}
		x := modem.PadRandomOffset(modem.Synthesize(cfg, bits, n.g0, n.g1), n.pad)
		if len(x) > maxLen {
			maxLen = len(x)
		}
		captures = append(captures, tma.Source{
			Theta:    n.thetaDeg * math.Pi / 180,
			Baseband: x,
		})
	}
	for i := range captures {
		pad := maxLen + 3000 - len(captures[i].Baseband)
		captures[i].Baseband = append(captures[i].Baseband, make([]complex128, pad)...)
	}

	// One antenna chain's worth of samples for the whole band.
	wide := arr.MixInto(nil, captures, wideRate)
	dsp.AddNoise(wide, 1e-4, stats.NewRNG(seed))
	fmt.Printf("wideband capture: %d samples at %.0f MS/s (%.2f ms of air)\n\n",
		len(wide), wideRate/1e6, float64(len(wide))/wideRate*1e3)

	cfg := apdsp.ChannelConfig(chanRate, symRate, fskSplit)
	// Every slot is a filterbank channel; the TMA harmonics are composed
	// into the channel map.
	start := time.Now()
	bank := apdsp.NewFilterBank(wideRate, center, sdmBins)
	bank.SwitchRateHz = fpHz
	plan := make([]apdsp.BankChannel, len(nodes))
	lens := make([]int, len(nodes))
	for i, n := range nodes {
		plan[i] = apdsp.BankChannel{ChannelHz: n.channel, Harmonic: n.harmonic}
		lens[i] = len(n.payload)
	}
	if err := bank.Configure(25e6, chanRate, plan); err != nil {
		panic(err)
	}
	frames, err := bank.ReceiveAll(wide, cfg, lens, workers)
	if err != nil {
		panic(err)
	}
	for i, n := range nodes {
		if len(frames[i]) == 0 {
			fmt.Printf("%-9s (%.4f GHz, m=%+d): no frame\n", n.name, n.channel/1e9, n.harmonic)
			continue
		}
		f := frames[i][0]
		fmt.Printf("%-9s (%.4f GHz, m=%+d, %s): %q\n",
			n.name, n.channel/1e9, n.harmonic, f.Result.Mode, f.Payload)
	}
	fmt.Printf("\none-pass filterbank receive (%d bins): %v\n",
		sdmBins, time.Since(start).Round(time.Millisecond))
}

// fdmDemo fills the digitized band with n simultaneous FDM nodes on a
// 1 MHz grid and demultiplexes them in one filterbank pass — the
// "billions of things" shape: AP receive cost per node amortized to the
// branch MACs plus an FFT bin.
func fdmDemo(n int, seed uint64, workers int) {
	const (
		bins    = 250 // 1 MHz grid across the 250 MHz band
		outRate = 2e6
		width   = 1e6
		sym     = 125e3
		fsk     = 500e3
		// A 1 MHz channel at 250 MS/s needs a sharp prototype: the
		// windowed-sinc transition is ~3.3·fs/taps, so 2751 taps gives
		// ~300 kHz of skirt. The bank pays taps/bins ≈ 11 MACs per branch
		// sample.
		taps = 2751
	)
	center := units.ISM24GHzCenter
	offsets := make([]float64, n)
	for i := range offsets {
		offsets[i] = float64(i-n/2) * 1e6
	}

	// Synthesize every node's frame into one reused buffer per lane and
	// add it at its random offset, striding nodes across w lanes (each
	// accumulates a partial band sum, summed in lane order, so the
	// capture depends on w alone).
	w := par.Lanes(workers, n)
	payload := func(i int) []byte { return []byte(fmt.Sprintf("n%03d", i)) }
	frameSamples := modem.FrameBits(4) * int(wideRate/sym)
	capLen := frameSamples + 6000
	partials := make([][]complex128, w)
	start := time.Now()
	par.For(w, w, func(_, g int) {
		sum := make([]complex128, capLen)
		var frame []complex128
		for i := g; i < n; i += w {
			bits, err := modem.BuildFrame(payload(i))
			if err != nil {
				panic(err)
			}
			cfg := modem.Config{
				SampleRate: wideRate, SymbolRate: sym,
				F0: offsets[i] - fsk/2, F1: offsets[i] + fsk/2,
			}
			rng := stats.NewRNG(seed + uint64(i)*0x9E3779B97F4A7C15)
			frame = modem.SynthesizeInto(frame, cfg, bits, complex(0.1, 0), complex(0.9, 0))
			dsp.Add(sum[rng.Intn(4000):], frame)
		}
		partials[g] = sum
	})
	wide := partials[0]
	for _, p := range partials[1:] {
		dsp.Add(wide, p)
	}
	dsp.AddNoise(wide, 1e-5, stats.NewRNG(seed))
	fmt.Printf("wideband capture: %d samples at %.0f MS/s, %d channels of %.1f MHz (synthesized in %v)\n",
		len(wide), wideRate/1e6, n, width/1e6, time.Since(start).Round(time.Millisecond))

	cfg := apdsp.ChannelConfig(outRate, sym, fsk)
	lens := make([]int, n)
	for i := range lens {
		lens[i] = 4
	}

	bank := apdsp.NewFilterBank(wideRate, center, bins)
	bank.Taps = taps
	plan := make([]apdsp.BankChannel, n)
	for i := range plan {
		plan[i] = apdsp.BankChannel{ChannelHz: center + offsets[i]}
	}
	if err := bank.Configure(width, outRate, plan); err != nil {
		panic(err)
	}
	t0 := time.Now()
	frames, err := bank.ReceiveAll(wide, cfg, lens, workers)
	if err != nil {
		panic(err)
	}
	bankTime := time.Since(t0)
	decoded := 0
	for i, fs := range frames {
		if len(fs) > 0 && string(fs[0].Payload) == string(payload(i)) {
			decoded++
		}
	}
	fmt.Printf("one-pass filterbank (%d bins): decoded %d/%d frames in %v (%.2f ms/channel)\n",
		bins, decoded, n, bankTime.Round(time.Millisecond),
		float64(bankTime.Microseconds())/1e3/float64(n))
}
