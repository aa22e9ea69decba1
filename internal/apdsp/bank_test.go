package apdsp

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"sync"
	"testing"

	"mmx/internal/dsp"
	"mmx/internal/modem"
	"mmx/internal/stats"
	"mmx/internal/tma"
	"mmx/internal/units"
)

// Bank test numerology: a scaled-down wideband capture (16 MS/s, 32 bins
// of 500 kHz) keeps the golden sweeps fast while exercising the same
// code paths as the 250 MS/s ISM configuration.
const (
	bWideRate = 16e6
	bBins     = 32
	bBinHz    = bWideRate / bBins
	bOutRate  = 2e6
	bWidthHz  = 1e6
	bSwitch   = 1e6 // TMA f_p = 2 bins, so harmonics stay on the grid
)

// legacyExtract is the reference path the bank is pinned against: full-band
// harmonic shift, then per-channel mix → FIR → decimate.
func legacyExtract(t *testing.T, y []complex128, center float64, ch BankChannel, arr *tma.Array) []complex128 {
	t.Helper()
	chz := NewChannelizer(bWideRate, center)
	bb, err := chz.Extract(harmonicShift(y, arr, ch.Harmonic, bWideRate), ch.ChannelHz, bWidthHz, bOutRate)
	if err != nil {
		t.Fatalf("legacy extract: %v", err)
	}
	return bb
}

func randCapture(n int, seed uint64) []complex128 {
	rng := stats.NewRNG(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	return x
}

// TestBankMatchesLegacyAcrossRandomPlans is the golden property test:
// random channel plans — including TMA-shifted channels — extracted from
// random captures must match the legacy per-channel path within 1e-9.
func TestBankMatchesLegacyAcrossRandomPlans(t *testing.T) {
	center := units.ISM24GHzCenter
	arr := tma.NewSDMArray(8, bSwitch)
	for trial := 0; trial < 8; trial++ {
		rng := stats.NewRNG(uint64(100 + trial))
		y := randCapture(3000+int(rng.Intn(2000)), uint64(trial))
		nch := 3 + int(rng.Intn(6))
		plan := make([]BankChannel, 0, nch)
		for len(plan) < nch {
			bin := int(rng.Intn(21)) - 10 // channels within ±10 bins of center
			harmonic := int(rng.Intn(5)) - 2
			ch := BankChannel{
				ChannelHz: center + float64(bin)*bBinHz,
				Harmonic:  harmonic,
			}
			if math.Abs(ch.ChannelHz-center)+bWidthHz/2 > bWideRate/2 {
				continue
			}
			plan = append(plan, ch)
		}
		bank := NewFilterBank(bWideRate, center, bBins)
		bank.SwitchRateHz = bSwitch
		if err := bank.Configure(bWidthHz, bOutRate, plan); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := bank.ExtractAll(y)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for ci, ch := range plan {
			want := legacyExtract(t, y, center, ch, arr)
			if len(got[ci]) != len(want) {
				t.Fatalf("trial %d ch %d: len %d vs legacy %d", trial, ci, len(got[ci]), len(want))
			}
			for i := range want {
				if d := cmplx.Abs(got[ci][i] - want[i]); d > 1e-9 {
					t.Fatalf("trial %d ch %d (bin %+.0f, m=%+d) sample %d: bank deviates by %.3g",
						trial, ci, (ch.ChannelHz-center)/bBinHz, ch.Harmonic, i, d)
				}
			}
		}
	}
}

// TestBankMatchesLegacyNonPowerOfTwoBins runs the same pin with a bin
// count that forces the mixed-radix per-block transform.
func TestBankMatchesLegacyNonPowerOfTwoBins(t *testing.T) {
	center := units.ISM24GHzCenter
	const bins = 20 // fs/bins = 800 kHz grid; outRate divides fs
	arr := tma.NewSDMArray(8, 1.6e6)
	y := randCapture(4000, 9)
	plan := []BankChannel{
		{ChannelHz: center - 4*800e3},
		{ChannelHz: center + 3*800e3, Harmonic: -1},
		{ChannelHz: center, Harmonic: +2},
	}
	bank := NewFilterBank(bWideRate, center, bins)
	bank.SwitchRateHz = 1.6e6
	if err := bank.Configure(bWidthHz, bOutRate, plan); err != nil {
		t.Fatal(err)
	}
	got, err := bank.ExtractAll(y)
	if err != nil {
		t.Fatal(err)
	}
	chz := NewChannelizer(bWideRate, center)
	for ci, ch := range plan {
		want, err := chz.Extract(harmonicShift(y, arr, ch.Harmonic, bWideRate), ch.ChannelHz, bWidthHz, bOutRate)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if d := cmplx.Abs(got[ci][i] - want[i]); d > 1e-9 {
				t.Fatalf("ch %d sample %d: deviates by %.3g", ci, i, d)
			}
		}
	}
}

// TestBankReceiveAllDecodesFDMPlusSDM is the end-to-end one-pass AP: two
// FDM nodes plus two co-channel SDM nodes, one ExtractAll, parallel
// per-channel stream demodulation.
func TestBankReceiveAllDecodesFDMPlusSDM(t *testing.T) {
	center := units.ISM24GHzCenter
	const symRate = 125e3
	const fsk = 500e3
	arr := tma.NewSDMArray(8, bSwitch)

	mkwave := func(payload []byte, offsetHz float64, g0, g1 complex128, pad int) []complex128 {
		bits, err := modem.BuildFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		cfg := modem.Config{
			SampleRate: bWideRate, SymbolRate: symRate,
			F0: offsetHz - fsk/2, F1: offsetHz + fsk/2,
		}
		return modem.PadRandomOffset(modem.Synthesize(cfg, bits, g0, g1), pad)
	}

	// Channel plan: two FDM-only channels, one channel shared by two SDM
	// nodes on harmonics ±1 (grid angles for the 8-element array). With
	// f_p = 2 bins every effective offset stays on the grid.
	chA := center - 6*bBinHz
	chB := center + 6*bBinHz
	chS := center - 2*bBinHz
	pA := []byte("fdm-A")
	pB := []byte("fdm-B")
	p1 := []byte("sdm-1")
	p2 := []byte("sdm-2")
	xa := mkwave(pA, chA-center, complex(0.1, 0), complex(0.9, 0), 300)
	xb := mkwave(pB, chB-center, complex(0.85, 0), complex(0.15, 0), 900)
	x1 := mkwave(p1, chS-center, complex(0.12, 0), complex(0.88, 0), 600)
	x2 := mkwave(p2, chS-center, complex(0.8, 0), complex(0.14, 0), 1200)
	n := 0
	for _, x := range [][]complex128{xa, xb, x1, x2} {
		if len(x) > n {
			n = len(x)
		}
	}
	grow := func(x []complex128) []complex128 {
		return append(x, make([]complex128, n+1000-len(x))...)
	}
	y := arr.MixInto(nil, []tma.Source{
		{Theta: 0, Baseband: dsp.Add(grow(xa), grow(xb))},
		{Theta: math.Asin(2.0 / 8), Baseband: grow(x1)},
		{Theta: math.Asin(-2.0 / 8), Baseband: grow(x2)},
	}, bWideRate)
	dsp.AddNoise(y, 1e-4, stats.NewRNG(5))

	bank := NewFilterBank(bWideRate, center, bBins)
	bank.SwitchRateHz = bSwitch
	plan := []BankChannel{
		{ChannelHz: chA},
		{ChannelHz: chB},
		{ChannelHz: chS, Harmonic: +1},
		{ChannelHz: chS, Harmonic: -1},
	}
	if err := bank.Configure(bWidthHz, bOutRate, plan); err != nil {
		t.Fatal(err)
	}
	cfg := ChannelConfig(bOutRate, symRate, fsk)
	payloads := [][]byte{pA, pB, p1, p2}
	lens := []int{len(pA), len(pB), len(p1), len(p2)}
	frames, err := bank.ReceiveAll(y, cfg, lens, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ci, want := range payloads {
		if len(frames[ci]) != 1 {
			t.Fatalf("channel %d: %d frames, want 1", ci, len(frames[ci]))
		}
		if !bytes.Equal(frames[ci][0].Payload, want) {
			t.Errorf("channel %d payload = %q, want %q", ci, frames[ci][0].Payload, want)
		}
	}

	// Worker-count invariance: the parallel fan-out is bit-identical to
	// the serial scan.
	serial, err := bank.ReceiveAll(y, cfg, lens, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(frames, serial) {
		t.Error("ReceiveAll results depend on worker count")
	}
}

// TestBankExtractionIdenticalAcrossLanes pins the fanned-out sweep: on
// the shipped 1 MHz grid (250 bins — the mixed-radix FFT — 2751 taps,
// decimation 125) the channel outputs ReceiveAll extracts over 1, 2, 3 and
// 8 lanes equal ExtractAll's bit for bit, down to captures with fewer
// output instants than lanes. The outputs are poisoned with NaN before
// every call, so a lane range that leaves an instant unwritten fails.
func TestBankExtractionIdenticalAcrossLanes(t *testing.T) {
	const (
		rate = 250e6
		bins = 250
		taps = 2751
	)
	center := units.ISM24GHzCenter
	plan := make([]BankChannel, 0, 24)
	for i := -12; i < 12; i++ {
		plan = append(plan, BankChannel{ChannelHz: center + float64(7*i)*1e6})
	}
	bank := NewFilterBank(rate, center, bins)
	bank.Taps = taps
	if err := bank.Configure(1e6, 2e6, plan); err != nil {
		t.Fatal(err)
	}
	if bank.decim != 125 {
		t.Fatalf("decimation %d, want 125", bank.decim)
	}
	cfg := ChannelConfig(2e6, 125e3, 500e3)
	lens := make([]int, len(plan))
	for i := range lens {
		lens[i] = 4
	}
	nan := complex(math.NaN(), math.NaN())
	for _, n := range []int{40*125 + 17, 2 * 125, 1} {
		x := randCapture(n, uint64(n))
		want, err := bank.ExtractAll(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, o := range bank.outs {
				o = o[:cap(o)]
				for j := range o {
					o[j] = nan
				}
			}
			if _, err := bank.ReceiveAll(x, cfg, lens, workers); err != nil {
				t.Fatal(err)
			}
			for ci, w := range want {
				got := bank.outs[ci]
				if len(got) != len(w) {
					t.Fatalf("n=%d workers=%d ch %d: %d samples, want %d", n, workers, ci, len(got), len(w))
				}
				for j := range w {
					if math.Float64bits(real(got[j])) != math.Float64bits(real(w[j])) ||
						math.Float64bits(imag(got[j])) != math.Float64bits(imag(w[j])) {
						t.Fatalf("n=%d workers=%d ch %d sample %d: %v, ExtractAll has %v", n, workers, ci, j, got[j], w[j])
					}
				}
			}
		}
	}
}

func TestBankConfigureErrors(t *testing.T) {
	center := units.ISM24GHzCenter
	bank := NewFilterBank(bWideRate, center, bBins)
	// Off-grid channel.
	if err := bank.Configure(bWidthHz, bOutRate, []BankChannel{{ChannelHz: center + bBinHz/3}}); err != ErrOffGrid {
		t.Errorf("off-grid: %v", err)
	}
	// Harmonic without a switch rate.
	if err := bank.Configure(bWidthHz, bOutRate, []BankChannel{{ChannelHz: center, Harmonic: 1}}); err != ErrNoSwitchRate {
		t.Errorf("no switch rate: %v", err)
	}
	// Channel outside the capture.
	if err := bank.Configure(bWidthHz, bOutRate, []BankChannel{{ChannelHz: center + bWideRate}}); err != ErrBadChannel {
		t.Errorf("out of span: %v", err)
	}
	// Non-integer decimation.
	if err := bank.Configure(bWidthHz, 3e6, []BankChannel{{ChannelHz: center}}); err != ErrBadRate {
		t.Errorf("bad rate: %v", err)
	}
	// Extraction before Configure.
	if _, err := NewFilterBank(bWideRate, center, bBins).ExtractAll(make([]complex128, 64)); err != ErrNotConfigured {
		t.Errorf("unconfigured: %v", err)
	}
}

// TestBankAndChannelizerRejectAliasedDst: the bank writes channel outputs
// while still reading the capture, so dst slices sharing x's storage are
// rejected, as is a capacity-sufficient aliasing dst on the legacy path.
func TestBankAndChannelizerRejectAliasedDst(t *testing.T) {
	center := units.ISM24GHzCenter
	y := randCapture(2048, 1)
	bank := NewFilterBank(bWideRate, center, bBins)
	if err := bank.Configure(bWidthHz, bOutRate, []BankChannel{{ChannelHz: center}}); err != nil {
		t.Fatal(err)
	}
	if _, err := bank.ExtractAllInto([][]complex128{y[:0:512]}, y); err != ErrAliased {
		t.Errorf("bank alias: %v", err)
	}
	chz := NewChannelizer(bWideRate, center)
	if _, err := chz.ExtractInto(y[:0:512], y, center, bWidthHz, bOutRate); err != ErrAliased {
		t.Errorf("channelizer alias: %v", err)
	}
	// A disjoint dst is fine.
	if _, err := bank.ExtractAllInto(nil, y); err != nil {
		t.Errorf("disjoint dst: %v", err)
	}
}

// TestChannelizerFilterCacheKeyedOnRate: retargeting a Channelizer to a
// different capture rate must redesign the anti-alias filter even when
// cutoff and taps are unchanged.
func TestChannelizerFilterCacheKeyedOnRate(t *testing.T) {
	center := units.ISM24GHzCenter
	y := randCapture(4096, 2)
	c := NewChannelizer(bWideRate, center)
	if _, err := c.Extract(y, center+2*bBinHz, bWidthHz, bOutRate); err != nil {
		t.Fatal(err)
	}
	// Same cutoff and taps, halved capture rate: a stale design would
	// filter with the wrong normalized cutoff.
	c.WidebandRate = bWideRate / 2
	got, err := c.Extract(y, center+2*bBinHz, bWidthHz, bOutRate/2)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewChannelizer(bWideRate/2, center)
	want, err := fresh.Extract(y, center+2*bBinHz, bWidthHz, bOutRate/2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stale filter design after rate change (sample %d: %v vs %v)", i, got[i], want[i])
		}
	}
}

// TestChannelizerPerWorkerIsRaceFree pins the documented concurrency
// contract: the Channelizer's design cache is unsynchronized, so each
// worker owns its channelizer; a shared read-only capture is safe. Run
// under -race in CI.
func TestChannelizerPerWorkerIsRaceFree(t *testing.T) {
	center := units.ISM24GHzCenter
	y := randCapture(8192, 3)
	want, err := NewChannelizer(bWideRate, center).Extract(y, center+4*bBinHz, bWidthHz, bOutRate)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewChannelizer(bWideRate, center) // one channelizer per worker
			var dst []complex128
			for iter := 0; iter < 4; iter++ {
				bb, err := c.ExtractInto(dst, y, center+4*bBinHz, bWidthHz, bOutRate)
				if err != nil {
					errs[g] = err
					return
				}
				dst = bb
				for i := range want {
					if cmplx.Abs(bb[i]-want[i]) > 1e-12 {
						errs[g] = fmt.Errorf("worker %d sample %d deviates", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBankHotPathAllocationFree pins the acceptance criterion: once dst is
// warm the per-block hot path (branch MACs, the radix-2 per-block FFT,
// twiddled readout) allocates nothing.
func TestBankHotPathAllocationFree(t *testing.T) {
	center := units.ISM24GHzCenter
	y := randCapture(8192, 4)
	bank := NewFilterBank(bWideRate, center, bBins)
	bank.SwitchRateHz = bSwitch
	plan := make([]BankChannel, 0, 8)
	for i := -4; i < 4; i++ {
		plan = append(plan, BankChannel{ChannelHz: center + float64(i)*bBinHz})
	}
	if err := bank.Configure(bWidthHz, bOutRate, plan); err != nil {
		t.Fatal(err)
	}
	dst, err := bank.ExtractAllInto(nil, y)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if dst, err = bank.ExtractAllInto(dst, y); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("allocs/op = %v on warm bank hot path, want 0", allocs)
	}
}
