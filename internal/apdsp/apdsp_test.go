package apdsp

import (
	"bytes"
	"math"
	"testing"

	"mmx/internal/dsp"
	"mmx/internal/modem"
	"mmx/internal/stats"
	"mmx/internal/tma"
	"mmx/internal/units"
)

const (
	wideRate = 250e6 // full ISM band digitized at once
	chanRate = 25e6  // per-channel processing rate
	symRate  = 1e6
	fskSplit = 500e3
)

// nodeWaveform synthesizes one node's frame as seen in the wideband
// capture: the VCO sits at the node's channel, so the tones are the
// channel offset ± the FSK split.
func nodeWaveform(t *testing.T, payload []byte, offsetHz float64, g0, g1 complex128, pad int) []complex128 {
	t.Helper()
	bits, err := modem.BuildFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := modem.Config{
		SampleRate: wideRate,
		SymbolRate: symRate,
		F0:         offsetHz - fskSplit/2,
		F1:         offsetHz + fskSplit/2,
	}
	x := modem.Synthesize(cfg, bits, g0, g1)
	return modem.PadRandomOffset(x, pad)
}

func TestChannelizerSeparatesTwoFDMNodes(t *testing.T) {
	center := units.ISM24GHzCenter
	chanA := center - 60e6
	chanB := center + 40e6
	payloadA := []byte("node-A frame")
	payloadB := []byte("node-B frame")

	// Both nodes transmit simultaneously on their own channels.
	xa := nodeWaveform(t, payloadA, chanA-center, complex(0.12, 0), complex(0.9, 0), 2500)
	xb := nodeWaveform(t, payloadB, chanB-center, complex(0.8, 0.1), complex(0.2, 0), 600)
	n := len(xa)
	if len(xb) > n {
		n = len(xb)
	}
	wide := make([]complex128, n+5000)
	dsp.Add(wide, xa)
	dsp.Add(wide, xb)
	dsp.AddNoise(wide, 1e-4, stats.NewRNG(1))

	c := NewChannelizer(wideRate, center)
	cfg := ChannelConfig(chanRate, symRate, fskSplit)
	for _, tc := range []struct {
		channel float64
		payload []byte
	}{{chanA, payloadA}, {chanB, payloadB}} {
		bb, err := c.Extract(wide, tc.channel, 25e6, chanRate)
		if err != nil {
			t.Fatal(err)
		}
		d := modem.NewDemodulator(cfg)
		got, res, err := d.Receive(bb, len(tc.payload))
		if err != nil {
			t.Fatalf("channel %.1f MHz: %v (mode %s)", (tc.channel-24e9)/1e6, err, res.Mode)
		}
		if !bytes.Equal(got, tc.payload) {
			t.Errorf("channel %.1f MHz payload = %q", (tc.channel-24e9)/1e6, got)
		}
	}
}

func TestChannelizerRejectsAdjacentChannelEnergy(t *testing.T) {
	center := units.ISM24GHzCenter
	// Only node B transmits; extracting node A's channel should contain
	// almost no energy.
	xb := nodeWaveform(t, []byte("only-B"), 40e6, complex(0.8, 0), complex(0.8, 0), 0)
	c := NewChannelizer(wideRate, center)
	bbA, err := c.Extract(xb, center-60e6, 25e6, chanRate)
	if err != nil {
		t.Fatal(err)
	}
	bbB, err := c.Extract(xb, center+40e6, 25e6, chanRate)
	if err != nil {
		t.Fatal(err)
	}
	leak := dsp.Power(bbA[100:])
	own := dsp.Power(bbB[100:])
	if leak > own/1e4 {
		t.Errorf("adjacent leakage %.2e vs own %.2e (want >40 dB rejection)", leak, own)
	}
}

func TestChannelizerErrors(t *testing.T) {
	c := NewChannelizer(wideRate, 24.125e9)
	x := make([]complex128, 1000)
	// Channel outside the digitized span.
	if _, err := c.Extract(x, 24.125e9+130e6, 25e6, chanRate); err != ErrBadChannel {
		t.Errorf("out-of-span: %v", err)
	}
	// Non-integer decimation.
	if _, err := c.Extract(x, 24.125e9, 25e6, 24e6); err != ErrBadRate {
		t.Errorf("bad rate: %v", err)
	}
	if _, err := c.Extract(x, 24.125e9, 25e6, 0); err != ErrBadRate {
		t.Errorf("zero rate: %v", err)
	}
	if _, err := c.Extract(x, 24.125e9, 25e6, 2*wideRate); err != ErrBadRate {
		t.Errorf("over rate: %v", err)
	}
}

func TestSDMSeparatorTwoCoChannelNodes(t *testing.T) {
	// Two nodes share the band center, separated only by angle. TMA
	// switching at 25 MHz parks them on harmonics ±1 (grid angles for an
	// 8-element λ/2 array).
	arr := tma.NewSDMArray(8, 25e6)

	payloadA := []byte("sdm-A")
	payloadB := []byte("sdm-B")
	xa := nodeWaveform(t, payloadA, 0, complex(0.1, 0), complex(0.9, 0), 800)
	xb := nodeWaveform(t, payloadB, 0, complex(0.85, 0), complex(0.15, 0), 1400)
	n := len(xa)
	if len(xb) > n {
		n = len(xb)
	}
	grow := func(x []complex128) []complex128 {
		return append(x, make([]complex128, n+2000-len(x))...)
	}
	thA := math.Asin(2.0 / 8) // harmonic +1
	thB := math.Asin(-2.0 / 8)
	y := arr.MixInto(nil, []tma.Source{
		{Theta: thA, Baseband: grow(xa)},
		{Theta: thB, Baseband: grow(xb)},
	}, wideRate)
	dsp.AddNoise(y, 1e-4, stats.NewRNG(2))

	cfg := ChannelConfig(chanRate, symRate, fskSplit)
	c := NewChannelizer(wideRate, units.ISM24GHzCenter)
	for _, tc := range []struct {
		harmonic int
		payload  []byte
	}{{+1, payloadA}, {-1, payloadB}} {
		bb, err := c.Extract(harmonicShift(y, arr, tc.harmonic, wideRate), units.ISM24GHzCenter, 25e6, chanRate)
		if err != nil {
			t.Fatal(err)
		}
		d := modem.NewDemodulator(cfg)
		got, res, err := d.Receive(bb, len(tc.payload))
		if err != nil {
			t.Fatalf("harmonic %+d: %v (mode %s, conf %.2f)",
				tc.harmonic, err, res.Mode, res.ASKConfidence)
		}
		if !bytes.Equal(got, tc.payload) {
			t.Errorf("harmonic %+d payload = %q", tc.harmonic, got)
		}
	}
}

func TestFullAPPipelineFDMPlusSDM(t *testing.T) {
	// The complete software AP: three nodes — two FDM channels, the
	// second channel shared by two SDM nodes at different angles.
	center := units.ISM24GHzCenter
	chanA := center - 50e6
	chanB := center + 50e6
	pA := []byte("fdm-alone")
	pB1 := []byte("sdm-one!!")
	pB2 := []byte("sdm-two!!")

	arr := tma.NewSDMArray(8, 25e6)

	// Node A arrives at the harmonic-0 grid angle (broadside) so the
	// TMA leaves its channel intact at m=0.
	xa := nodeWaveform(t, pA, chanA-center, complex(0.1, 0), complex(0.9, 0), 500)
	x1 := nodeWaveform(t, pB1, chanB-center, complex(0.12, 0), complex(0.85, 0), 900)
	x2 := nodeWaveform(t, pB2, chanB-center, complex(0.8, 0), complex(0.14, 0), 1600)
	n := 0
	for _, x := range [][]complex128{xa, x1, x2} {
		if len(x) > n {
			n = len(x)
		}
	}
	grow := func(x []complex128) []complex128 {
		return append(x, make([]complex128, n+2000-len(x))...)
	}
	y := arr.MixInto(nil, []tma.Source{
		{Theta: 0, Baseband: grow(xa)},
		{Theta: math.Asin(2.0 / 8), Baseband: grow(x1)},
		{Theta: math.Asin(-2.0 / 8), Baseband: grow(x2)},
	}, wideRate)
	dsp.AddNoise(y, 1e-4, stats.NewRNG(3))

	c := NewChannelizer(wideRate, center)
	cfg := ChannelConfig(chanRate, symRate, fskSplit)
	decode := func(bb []complex128, payloadLen int) ([]byte, error) {
		d := modem.NewDemodulator(cfg)
		got, _, err := d.Receive(bb, payloadLen)
		return got, err
	}

	// FDM node A: harmonic 0 then its channel.
	bbA, err := c.Extract(harmonicShift(y, arr, 0, wideRate), chanA, 25e6, chanRate)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decode(bbA, len(pA)); err != nil || !bytes.Equal(got, pA) {
		t.Errorf("node A: %q %v", got, err)
	}

	// SDM nodes: harmonic ±1, then channel B.
	for _, tc := range []struct {
		harmonic int
		payload  []byte
	}{{+1, pB1}, {-1, pB2}} {
		bb, err := c.Extract(harmonicShift(y, arr, tc.harmonic, wideRate), chanB, 25e6, chanRate)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decode(bb, len(tc.payload)); err != nil || !bytes.Equal(got, tc.payload) {
			t.Errorf("harmonic %+d: %q %v", tc.harmonic, got, err)
		}
	}
}
