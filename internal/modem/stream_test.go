package modem

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"testing"

	"mmx/internal/dsp"
	"mmx/internal/stats"
)

// buildStream concatenates several frames with idle gaps into one capture.
func buildStream(t *testing.T, cfg Config, payloads [][]byte, gaps []int, g0, g1 complex128, noise float64, seed uint64) []complex128 {
	t.Helper()
	var x []complex128
	for i, p := range payloads {
		x = append(x, make([]complex128, gaps[i])...)
		bits, err := BuildFrame(p)
		if err != nil {
			t.Fatal(err)
		}
		x = append(x, Synthesize(cfg, bits, g0, g1)...)
	}
	x = append(x, make([]complex128, 100)...)
	dsp.AddNoise(x, noise, stats.NewRNG(seed))
	return x
}

func TestStreamReceiverMultipleFrames(t *testing.T) {
	cfg := DefaultConfig()
	payloads := [][]byte{
		[]byte("frame-00"), []byte("frame-01"), []byte("frame-02"), []byte("frame-03"),
	}
	gaps := []int{33, 70, 15, 120}
	x := buildStream(t, cfg, payloads, gaps, complex(0.15, 0), complex(1, 0), 0.01, 1)
	sr := NewStreamReceiver(cfg)
	frames := sr.ReceiveAll(x, len(payloads[0]))
	if len(frames) != len(payloads) {
		t.Fatalf("recovered %d frames, want %d", len(frames), len(payloads))
	}
	lastOffset := -1
	for i, f := range frames {
		if !bytes.Equal(f.Payload, payloads[i]) {
			t.Errorf("frame %d payload = %q", i, f.Payload)
		}
		if f.Offset <= lastOffset {
			t.Errorf("offsets not increasing: %d after %d", f.Offset, lastOffset)
		}
		lastOffset = f.Offset
		if f.Result.SyncScore < 0.55 {
			t.Errorf("frame %d sync score %.2f", i, f.Result.SyncScore)
		}
	}
	// First frame's offset matches its gap.
	if frames[0].Offset != gaps[0] {
		t.Errorf("first offset = %d, want %d", frames[0].Offset, gaps[0])
	}
}

func TestStreamReceiverEmptyCapture(t *testing.T) {
	cfg := DefaultConfig()
	// Pure noise: no frames should be reported.
	x := make([]complex128, 20000)
	dsp.AddNoise(x, 0.01, stats.NewRNG(2))
	sr := NewStreamReceiver(cfg)
	if frames := sr.ReceiveAll(x, 8); len(frames) != 0 {
		t.Errorf("found %d frames in pure noise", len(frames))
	}
	// Too-short capture.
	if frames := sr.ReceiveAll(x[:10], 8); len(frames) != 0 {
		t.Error("short capture should yield nothing")
	}
}

func TestStreamReceiverFSKOnlyFrames(t *testing.T) {
	// Equal-amplitude (FSK-only) frames must still sync via the
	// frequency track of the scorer.
	cfg := DefaultConfig()
	payloads := [][]byte{[]byte("flat-env"), []byte("flat-en2")}
	g := complex(0.7, 0.2)
	x := buildStream(t, cfg, payloads, []int{40, 60}, g, g, 0.005, 3)
	sr := NewStreamReceiver(cfg)
	frames := sr.ReceiveAll(x, len(payloads[0]))
	if len(frames) != 2 {
		t.Fatalf("recovered %d FSK frames, want 2", len(frames))
	}
	for i, f := range frames {
		if !bytes.Equal(f.Payload, payloads[i]) {
			t.Errorf("frame %d payload = %q", i, f.Payload)
		}
		if f.Result.Mode != "fsk" {
			t.Errorf("frame %d mode = %s", i, f.Result.Mode)
		}
	}
}

func TestStreamReceiverSkipsCorruptFrame(t *testing.T) {
	cfg := DefaultConfig()
	payloads := [][]byte{[]byte("good-one"), []byte("bad-one!"), []byte("good-two")}
	gaps := []int{30, 30, 30}
	x := buildStream(t, cfg, payloads, gaps, complex(0.15, 0), complex(1, 0), 0.01, 4)
	// Corrupt the middle frame's payload region heavily (zero out a
	// chunk of its samples).
	spb := cfg.SamplesPerSymbol()
	frameLen := FrameBits(8) * spb
	mid := gaps[0] + frameLen + gaps[1] + 60*spb
	for i := mid; i < mid+20*spb; i++ {
		x[i] = 0
	}
	sr := NewStreamReceiver(cfg)
	frames := sr.ReceiveAll(x, 8)
	// The corrupt frame fails its CRC and is skipped; both good frames
	// survive.
	if len(frames) != 2 {
		t.Fatalf("recovered %d frames, want 2 (corrupt one skipped)", len(frames))
	}
	if !bytes.Equal(frames[0].Payload, payloads[0]) || !bytes.Equal(frames[1].Payload, payloads[2]) {
		t.Errorf("wrong survivors: %q, %q", frames[0].Payload, frames[1].Payload)
	}
}

// oracleReceiveAll is StreamReceiver.ReceiveAll as it was before each scan
// window was prepared once: FirstSync prepares x[base:], then the decode
// prepares the same slice again and rescores the offset it was handed.
func oracleReceiveAll(d *Demodulator, minScore float64, x []complex128, payloadLen int) []StreamFrame {
	var out []StreamFrame
	nBits := FrameBits(payloadLen)
	frameSamples := nBits * d.cfg.SamplesPerSymbol()
	base := 0
	for len(x)-base >= frameSamples {
		offset, _, ok := d.FirstSync(x[base:], minScore)
		if !ok || base+offset+frameSamples > len(x) {
			break
		}
		d.prepare(x[base:])
		res := d.decodeAt(x[base:], nBits, offset, d.scoreAt(offset))
		if payload, err := ParseFrame(res.Bits); err == nil {
			res.Offset = base + offset
			res.Bits = append([]bool(nil), res.Bits...)
			out = append(out, StreamFrame{Payload: payload, Offset: res.Offset, Result: res})
		}
		base += offset + frameSamples
	}
	return out
}

// TestStreamReceiverMatchesPrepareTwiceOracle pins the single prepare per
// scan window against the old loop: on a multi-frame capture with one
// frame that fails its CRC, the frames, their offsets and every Result
// field come out identical.
func TestStreamReceiverMatchesPrepareTwiceOracle(t *testing.T) {
	cfg := DefaultConfig()
	payloads := [][]byte{[]byte("frame-00"), []byte("frame-01"), []byte("corrupt!"), []byte("frame-03"), []byte("frame-04")}
	gaps := []int{41, 17, 90, 33, 64}
	x := buildStream(t, cfg, payloads, gaps, complex(0.15, 0.05), complex(0.9, -0.2), 0.02, 11)
	spb := cfg.SamplesPerSymbol()
	frameLen := FrameBits(8) * spb
	mid := gaps[0] + gaps[1] + gaps[2] + 2*frameLen + 50*spb
	for i := mid; i < mid+20*spb; i++ {
		x[i] = 0
	}
	sr := NewStreamReceiver(cfg)
	got := sr.ReceiveAll(x, 8)
	want := oracleReceiveAll(NewDemodulator(cfg), sr.MinSyncScore, x, 8)
	if len(want) != len(payloads)-1 {
		t.Fatalf("oracle decoded %d frames, want %d (the corrupt one skipped)", len(want), len(payloads)-1)
	}
	if len(got) != len(want) {
		t.Fatalf("stream receiver found %d frames, oracle %d", len(got), len(want))
	}
	for i := range want {
		if g, w := got[i], want[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("frame %d: offset %d score %v mode %s, oracle offset %d score %v mode %s",
				i, g.Offset, g.Result.SyncScore, g.Result.Mode, w.Offset, w.Result.SyncScore, w.Result.Mode)
		}
	}
}

// mixDown multiplies x by e^{-j2π f t} in place, shifting a tone at freqHz
// down to DC, and returns x.
func mixDown(x []complex128, freqHz, sampleRate float64) []complex128 {
	w := -2 * math.Pi * freqHz / sampleRate
	for i, v := range x {
		x[i] = v * cmplx.Rect(1, w*float64(i))
	}
	return x
}

func TestCFOToleranceASK(t *testing.T) {
	// The envelope detector is CFO-immune: even a large residual carrier
	// offset (PLL error after down-conversion) leaves ASK decoding
	// intact.
	cfg := DefaultConfig()
	payload := []byte("cfo-proof ask")
	bits, _ := BuildFrame(payload)
	for _, cfo := range []float64{10e3, 100e3, 400e3} {
		x := Synthesize(cfg, bits, complex(0.1, 0), complex(1, 0))
		x = mixDown(x, -cfo, cfg.SampleRate) // shift everything up by cfo
		dsp.AddNoise(x, 0.01, stats.NewRNG(7))
		d := NewDemodulator(cfg)
		got, _, err := d.Receive(x, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("CFO %.0f kHz broke ASK decode: %v", cfo/1e3, err)
		}
	}
}

func TestCFOToleranceFSK(t *testing.T) {
	// FSK discrimination survives CFO up to a fraction of the tone
	// split (±250 kHz): both tones shift together and the stronger-tone
	// comparison still works until the offset approaches the split.
	cfg := DefaultConfig()
	payload := []byte("cfo fsk")
	bits, _ := BuildFrame(payload)
	g := complex(0.8, 0)
	for _, cfo := range []float64{20e3, 80e3, 150e3} {
		x := Synthesize(cfg, bits, g, g) // equal loss: FSK-only
		x = mixDown(x, -cfo, cfg.SampleRate)
		dsp.AddNoise(x, 0.005, stats.NewRNG(8))
		d := NewDemodulator(cfg)
		got, res, err := d.Receive(x, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("CFO %.0f kHz broke FSK decode: %v (mode %s)", cfo/1e3, err, res.Mode)
		}
	}
}

func TestVCOFSKStepSupportsModem(t *testing.T) {
	// The modem's default ±250 kHz tone split is the §6.3 FSK offset (in
	// hardware, a small nudge of the VCO control voltage).
	cfg := DefaultConfig()
	split := cfg.F1 - cfg.F0
	if split != 500e3 {
		t.Fatalf("default split = %v", split)
	}
	// The tone spacing must be resolvable by the per-symbol Goertzel:
	// more than one DFT bin at the symbol length.
	binHz := cfg.SampleRate / float64(cfg.SamplesPerSymbol())
	if split < binHz/2 {
		t.Errorf("split %.0f kHz under the Goertzel resolution %.0f kHz", split/1e3, binHz/1e3)
	}
	_ = fmt.Sprintf // keep fmt import meaningful if asserts change
}
