package modem

import (
	"bytes"
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"mmx/internal/dsp"
	"mmx/internal/stats"
)

// bytesToBits expands data MSB-first through the frame encoder's
// appendByteBits.
func bytesToBits(data []byte) []bool {
	var bits []bool
	for _, b := range data {
		bits = appendByteBits(bits, b)
	}
	return bits
}

func TestBitsBytesRoundtrip(t *testing.T) {
	data := []byte{0x00, 0xFF, 0xA5, 0x3C}
	bits := bytesToBits(data)
	if len(bits) != 32 {
		t.Fatalf("bits len = %d", len(bits))
	}
	if !bytes.Equal(BitsToBytes(bits), data) {
		t.Error("roundtrip mismatch")
	}
	// MSB-first: 0xA5 = 10100101.
	a5 := bytesToBits([]byte{0xA5})
	want := []bool{true, false, true, false, false, true, false, true}
	for i := range want {
		if a5[i] != want[i] {
			t.Fatalf("bit order wrong at %d", i)
		}
	}
	// Trailing partial bits dropped.
	if got := BitsToBytes(bits[:12]); len(got) != 1 {
		t.Errorf("partial = %d bytes", len(got))
	}
}

func TestBitsBytesProperty(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(BitsToBytes(bytesToBits(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundtrip(t *testing.T) {
	payload := []byte("hello mmX over the air")
	bits, err := BuildFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != FrameBits(len(payload)) {
		t.Errorf("frame bits = %d, want %d", len(bits), FrameBits(len(payload)))
	}
	got, err := ParseFrame(bits)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q", got)
	}
}

func TestFrameRoundtripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		bits, err := BuildFrame(payload)
		if err != nil {
			return false
		}
		got, err := ParseFrame(bits)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameCRCDetectsCorruption(t *testing.T) {
	bits, _ := BuildFrame([]byte("payload"))
	// Flip one payload bit (past preamble and length field).
	bits[len(Preamble)+20] = !bits[len(Preamble)+20]
	if _, err := ParseFrame(bits); err != ErrCRCMismatch {
		t.Errorf("err = %v, want CRC mismatch", err)
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := ParseFrame(make([]bool, 10)); err != ErrFrameTooShort {
		t.Errorf("short frame err = %v", err)
	}
	if _, err := BuildFrame(make([]byte, MaxPayload+1)); err != ErrPayloadTooLong {
		t.Errorf("long payload err = %v", err)
	}
	// A frame whose length field exceeds the actual body.
	bits, _ := BuildFrame([]byte("ab"))
	// Force length field to huge: bits after preamble are the 16-bit
	// length; set them all to 1 → 65535 > MaxPayload → ErrBadLength.
	for i := 0; i < 16; i++ {
		bits[len(Preamble)+i] = true
	}
	if _, err := ParseFrame(bits); err != ErrBadLength {
		t.Errorf("bad length err = %v", err)
	}
}

func TestInvertAndCount(t *testing.T) {
	// A beam-inverted copy of a frame differs in every bit.
	a := []bool{true, false, true, true}
	inv := make([]bool, len(a))
	for i, b := range a {
		inv[i] = !b
	}
	if n := CountBitErrors(a, inv); n != len(a) {
		t.Errorf("CountBitErrors against the inverted copy = %d, want %d", n, len(a))
	}
	if n := CountBitErrors([]bool{true, true}, []bool{true, false}); n != 1 {
		t.Errorf("CountBitErrors = %d", n)
	}
	if n := CountBitErrors([]bool{true, true, true}, []bool{true}); n != 2 {
		t.Errorf("length-mismatch errors = %d", n)
	}
}

func TestPreambleBalanced(t *testing.T) {
	ones := 0
	for _, b := range Preamble {
		if b {
			ones++
		}
	}
	if ones < 8 || len(Preamble)-ones < 8 {
		t.Errorf("preamble unbalanced: %d ones of %d", ones, len(Preamble))
	}
}

func TestSynthesizeShape(t *testing.T) {
	cfg := DefaultConfig()
	bits := []bool{true, false, true}
	x := Synthesize(cfg, bits, complex(0.2, 0), complex(1, 0))
	if len(x) != 3*cfg.SamplesPerSymbol() {
		t.Fatalf("len = %d", len(x))
	}
	spb := cfg.SamplesPerSymbol()
	// Amplitudes follow the per-bit gains.
	if a := cmplx.Abs(x[spb/2]); math.Abs(a-1) > 1e-9 {
		t.Errorf("bit-1 amplitude = %g", a)
	}
	if a := cmplx.Abs(x[spb+spb/2]); math.Abs(a-0.2) > 1e-9 {
		t.Errorf("bit-0 amplitude = %g", a)
	}
}

func TestSynthesizePhaseContinuity(t *testing.T) {
	cfg := DefaultConfig()
	x := Synthesize(cfg, []bool{true, false, true, true, false}, 1, 1)
	// With equal gains, consecutive samples never jump more than the
	// largest per-sample phase step (continuous-phase FSK).
	maxStep := 2*math.Pi*math.Max(math.Abs(cfg.F0), math.Abs(cfg.F1))/cfg.SampleRate + 1e-9
	for i := 1; i < len(x); i++ {
		d := cmplx.Phase(x[i] * cmplx.Conj(x[i-1]))
		if math.Abs(d) > maxStep {
			t.Fatalf("phase jump %g at sample %d", d, i)
		}
	}
}

func TestSamplesPerSymbolClamp(t *testing.T) {
	c := Config{SampleRate: 1e6, SymbolRate: 2e6}
	if c.SamplesPerSymbol() != 1 {
		t.Errorf("spb = %d", c.SamplesPerSymbol())
	}
	if DefaultConfig().SamplesPerSymbol() != 25 {
		t.Errorf("default spb = %d", DefaultConfig().SamplesPerSymbol())
	}
}

func TestPadRandomOffset(t *testing.T) {
	x := []complex128{1, 2}
	y := PadRandomOffset(x, 3)
	if len(y) != 5 || y[0] != 0 || y[3] != 1 {
		t.Errorf("pad = %v", y)
	}
	if got := PadRandomOffset(x, 0); len(got) != 2 {
		t.Error("zero pad should be identity")
	}
}

// sendReceive runs one full TX→noise→RX pass and returns the result.
func sendReceive(t *testing.T, cfg Config, payload []byte, g0, g1 complex128, noisePower float64, offset int, seed uint64) ([]byte, DemodResult) {
	t.Helper()
	bits, err := BuildFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	x := Synthesize(cfg, bits, g0, g1)
	x = PadRandomOffset(x, offset)
	// Trailing dead air too.
	x = append(x, make([]complex128, 40)...)
	rng := stats.NewRNG(seed)
	dsp.AddNoise(x, noisePower, rng)
	d := NewDemodulator(cfg)
	got, res, err := d.Receive(x, len(payload))
	if err != nil {
		t.Fatalf("Receive failed (mode %s, askConf %.2f, fskConf %.2f, off %d): %v",
			res.Mode, res.ASKConfidence, res.FSKConfidence, res.Offset, err)
	}
	return got, res
}

func TestEndToEndASK(t *testing.T) {
	cfg := DefaultConfig()
	cfg.F0, cfg.F1 = 0, 0 // pure ASK
	payload := []byte("pure ASK path")
	got, res := sendReceive(t, cfg, payload, complex(0.1, 0), complex(1, 0), 0.01, 37, 1)
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q", got)
	}
	if res.Mode != "ask" {
		t.Errorf("mode = %s, want ask", res.Mode)
	}
	if res.Offset != 37 {
		t.Errorf("sync offset = %d, want 37", res.Offset)
	}
	if res.Inverted {
		t.Error("should not be inverted")
	}
}

func TestEndToEndInvertedChannel(t *testing.T) {
	// Fig. 4(b): LoS blocked, so the bit-0 beam arrives stronger. The
	// preamble must flip the mapping.
	cfg := DefaultConfig()
	payload := []byte("inverted mapping")
	got, res := sendReceive(t, cfg, payload, complex(1, 0), complex(0.15, 0), 0.01, 11, 2)
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q", got)
	}
	if !res.Inverted {
		t.Error("inversion not detected")
	}
}

func TestEndToEndFSKOnly(t *testing.T) {
	// §6.3's rare case: both beams arrive with the same loss, ASK is
	// blind, FSK must carry the frame.
	cfg := DefaultConfig()
	payload := []byte("equal loss, FSK saves the day")
	g := complex(0.6, 0.1)
	got, res := sendReceive(t, cfg, payload, g, g, 0.005, 23, 3)
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q", got)
	}
	if res.Mode != "fsk" {
		t.Errorf("mode = %s, want fsk (askConf=%.3f)", res.Mode, res.ASKConfidence)
	}
	if res.ASKConfidence > 0.2 {
		t.Errorf("ASK confidence = %.2f for equal-loss channel", res.ASKConfidence)
	}
}

func TestEndToEndOneBeamLost(t *testing.T) {
	// The bit-0 beam is completely gone (deep fade): FSK sees only one
	// tone, ASK (on/off) must decode — §6.3's other failure direction.
	cfg := DefaultConfig()
	payload := []byte("beam 0 faded out")
	got, res := sendReceive(t, cfg, payload, complex(1e-4, 0), complex(0.9, 0), 0.004, 5, 4)
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q", got)
	}
	if res.ASKConfidence < 0.5 {
		t.Errorf("ASK confidence = %.2f, want high", res.ASKConfidence)
	}
}

func TestEndToEndJoint(t *testing.T) {
	cfg := DefaultConfig()
	payload := []byte("both modalities contribute")
	got, res := sendReceive(t, cfg, payload, complex(0.4, 0), complex(1, 0), 0.01, 50, 5)
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q", got)
	}
	if res.Mode != "joint" {
		t.Errorf("mode = %s, want joint", res.Mode)
	}
}

func TestDemodulateTooShort(t *testing.T) {
	d := NewDemodulator(DefaultConfig())
	if _, err := d.Demodulate(make([]complex128, 10), 1000); err != ErrNoSync {
		t.Errorf("err = %v", err)
	}
}

func TestDemodulateNoisy(t *testing.T) {
	// Moderate noise: frame must still decode thanks to the joint rule.
	cfg := DefaultConfig()
	payload := []byte("noisy")
	for seed := uint64(10); seed < 15; seed++ {
		got, _ := sendReceive(t, cfg, payload, complex(0.2, 0), complex(1, 0), 0.05, int(seed*7), seed)
		if !bytes.Equal(got, payload) {
			t.Errorf("seed %d: payload = %q", seed, got)
		}
	}
}

func TestOOKBERAnchors(t *testing.T) {
	// The §9.3/9.4 anchors the model was calibrated to.
	if ber := OOKBER(10); ber > 1e-2 || ber < 1e-4 {
		t.Errorf("OOKBER(10 dB) = %g, want ≈1e-3", ber)
	}
	if ber := OOKBER(15); ber > 1e-7 || ber < 1e-9 {
		t.Errorf("OOKBER(15 dB) = %g, want ≈1e-8", ber)
	}
	if ber := OOKBER(18); ber > 1e-12 {
		t.Errorf("OOKBER(18 dB) = %g, want ≤1e-12", ber)
	}
	if ber := OOKBER(40); ber != BERFloor {
		t.Errorf("OOKBER(40 dB) = %g, want floor", ber)
	}
	if ber := OOKBER(-20); ber < 0.4 {
		t.Errorf("OOKBER(-20 dB) = %g, want ≈0.5", ber)
	}
	if OOKBER(math.Inf(-1)) != 0.5 {
		t.Error("-Inf SNR should be 0.5")
	}
}

func TestFSKBER(t *testing.T) {
	if ber := FSKBER(10); math.Abs(ber-0.5*math.Exp(-5)) > 1e-9 {
		t.Errorf("FSKBER(10) = %g", ber)
	}
	if FSKBER(60) != BERFloor {
		t.Error("high SNR should clamp to floor")
	}
	if FSKBER(math.Inf(-1)) != 0.5 {
		t.Error("-Inf SNR should be 0.5")
	}
}

func TestBERMonotoneProperty(t *testing.T) {
	f := func(a, b int16) bool {
		s1, s2 := float64(a)/100, float64(b)/100
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return OOKBER(s1) >= OOKBER(s2) && FSKBER(s1) >= FSKBER(s2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRequiredSNRForOOKBERRoundtrip(t *testing.T) {
	for _, ber := range []float64{1e-3, 1e-6, 1e-9, 1e-12} {
		snr := RequiredSNRForOOKBER(ber)
		if got := OOKBER(snr); math.Abs(math.Log10(got)-math.Log10(ber)) > 0.05 {
			t.Errorf("OOKBER(RequiredSNR(%g)) = %g", ber, got)
		}
	}
	if !math.IsInf(RequiredSNRForOOKBER(0.5), -1) {
		t.Error("BER 0.5 needs no SNR")
	}
}
