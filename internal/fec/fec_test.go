package fec

import (
	"bytes"
	"testing"
	"testing/quick"

	"mmx/internal/stats"
)

func TestHammingBlockRoundtrip(t *testing.T) {
	for v := 0; v < 16; v++ {
		var d [4]bool
		for j := 0; j < 4; j++ {
			d[j] = v&(1<<uint(j)) != 0
		}
		got, corrected := DecodeBlock(EncodeBlock(d))
		if corrected {
			t.Errorf("clean codeword %d reported a correction", v)
		}
		if got != d {
			t.Errorf("roundtrip %d: %v != %v", v, got, d)
		}
	}
}

func TestHammingCorrectsAnySingleError(t *testing.T) {
	for v := 0; v < 16; v++ {
		var d [4]bool
		for j := 0; j < 4; j++ {
			d[j] = v&(1<<uint(j)) != 0
		}
		cw := EncodeBlock(d)
		for pos := 0; pos < 7; pos++ {
			bad := cw
			bad[pos] = !bad[pos]
			got, corrected := DecodeBlock(bad)
			if !corrected {
				t.Errorf("v=%d pos=%d: error not detected", v, pos)
			}
			if got != d {
				t.Errorf("v=%d pos=%d: not corrected: %v != %v", v, pos, got, d)
			}
		}
	}
}

func TestEncodeBitsPadding(t *testing.T) {
	coded := EncodeBits([]bool{true, false, true}) // pads to 4
	if len(coded) != 7 {
		t.Fatalf("coded len = %d", len(coded))
	}
	data, n, err := DecodeBits(coded, 3)
	if err != nil || n != 0 {
		t.Fatalf("decode: %v corrections=%d", err, n)
	}
	want := []bool{true, false, true}
	for i := range want {
		if data[i] != want[i] {
			t.Fatal("padding roundtrip broken")
		}
	}
}

func TestDecodeBitsErrors(t *testing.T) {
	if _, _, err := DecodeBits(make([]bool, 6), 4); err != ErrBadLength {
		t.Errorf("bad length: %v", err)
	}
	if _, _, err := DecodeBits(make([]bool, 7), 5); err == nil {
		t.Error("want > capacity should error")
	}
}

func TestInterleaveRoundtripProperty(t *testing.T) {
	f := func(raw []byte, depth uint8) bool {
		bits := bytesToBits(raw)
		d := int(depth%20) + 1
		got := Deinterleave(Interleave(bits, d), d)
		if len(got) != len(bits) {
			return false
		}
		for i := range bits {
			if got[i] != bits[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterleaveSpreadsBursts(t *testing.T) {
	// A burst of up to `rows` consecutive errors in the interleaved
	// stream must land in distinct 7-bit blocks after deinterleaving
	// (depth = 14 → two codewords per row, rows = n/14).
	depth := 14
	n := 14 * 8 // 8 rows, 16 codewords
	rows := n / depth
	for _, burstStart := range []int{0, 5, 20, 37, n - rows} {
		bits := make([]bool, n)
		il := Interleave(bits, depth)
		for i := burstStart; i < burstStart+rows; i++ {
			il[i] = !il[i]
		}
		restored := Deinterleave(il, depth)
		perBlock := map[int]int{}
		for i, b := range restored {
			if b {
				perBlock[i/7]++
			}
		}
		for blk, cnt := range perBlock {
			if cnt > 1 {
				t.Errorf("start %d: block %d received %d burst errors, want ≤1",
					burstStart, blk, cnt)
			}
		}
	}
}

func TestCodecRoundtripProperty(t *testing.T) {
	c := NewCodec()
	f := func(payload []byte) bool {
		coded := c.Encode(payload)
		got, corrections, err := c.Decode(coded, len(payload))
		return err == nil && corrections == 0 && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodecCorrectsScatteredErrors(t *testing.T) {
	c := NewCodec()
	rng := stats.NewRNG(1)
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	coded := c.Encode(payload)
	// Flip one bit in every 7-bit block's worth of the coded stream —
	// heavy but correctable after deinterleaving only if scattered; here
	// we scatter manually (one flip per 7 coded bits, spaced apart).
	for i := 3; i < len(coded)*8; i += 53 {
		coded[i/8] ^= 1 << uint(7-i%8)
	}
	got, corrections, err := c.Decode(coded, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if corrections == 0 {
		t.Error("no corrections reported")
	}
	if !bytes.Equal(got, payload) {
		t.Error("scattered errors not corrected")
	}
}

func TestCodecCorrectsBurst(t *testing.T) {
	c := NewCodec()
	payload := []byte("burst-protected mmX frame payload!!")
	coded := c.Encode(payload)
	// A contiguous burst at the codec's guaranteed tolerance, one bit per
	// interleaver row (a blocker clipping the beam for that many symbol
	// times).
	_, padded := c.codedBits(len(payload))
	tol := padded / c.InterleaveDepth
	if tol < 12 {
		t.Fatalf("burst tolerance = %d, want ≥12", tol)
	}
	start := 40
	for i := start; i < start+tol; i++ {
		coded[i/8] ^= 1 << uint(7-i%8)
	}
	got, corrections, err := c.Decode(coded, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if corrections < tol-2 { // burst may fall partly in padding bits
		t.Errorf("corrections = %d, want ≈%d", corrections, tol)
	}
	if !bytes.Equal(got, payload) {
		t.Error("burst not corrected")
	}
}

func TestCodecOverhead(t *testing.T) {
	c := NewCodec()
	// Rate 4/7: 64 bytes → 896 coded bits = 112 bytes (the 14-bit rows
	// divide 896 exactly, so no interleaver padding here).
	if got := c.Overhead(64); got != 112 {
		t.Errorf("Overhead(64) = %d", got)
	}
	if got := len(c.Encode(make([]byte, 64))); got != 112 {
		t.Errorf("Encode size = %d", got)
	}
	if _, padded := c.codedBits(64); padded/c.InterleaveDepth != 64 {
		t.Errorf("64-byte payload spans %d rows, want 64", padded/c.InterleaveDepth)
	}
	// Decode rejects truncated input.
	if _, _, err := c.Decode(make([]byte, 3), 64); err == nil {
		t.Error("truncated coded stream should error")
	}
}

func TestCodecUncodedBERImprovement(t *testing.T) {
	// Property the paper appeals to: at a raw BER around 1e-2, coding
	// turns most frame losses into deliveries.
	c := NewCodec()
	rng := stats.NewRNG(7)
	payload := make([]byte, 32)
	rawBER := 0.01
	trials := 300
	okCoded, okUncoded := 0, 0
	for trial := 0; trial < trials; trial++ {
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		// Uncoded: any flipped bit kills the frame (CRC).
		flips := 0
		for i := 0; i < len(payload)*8; i++ {
			if rng.Float64() < rawBER {
				flips++
			}
		}
		if flips == 0 {
			okUncoded++
		}
		// Coded: flip bits in the coded stream, then decode.
		coded := c.Encode(payload)
		for i := 0; i < len(coded)*8; i++ {
			if rng.Float64() < rawBER {
				coded[i/8] ^= 1 << uint(7-i%8)
			}
		}
		got, _, err := c.Decode(coded, len(payload))
		if err == nil && bytes.Equal(got, payload) {
			okCoded++
		}
	}
	if okCoded <= okUncoded {
		t.Errorf("coded deliveries %d should beat uncoded %d at BER %g",
			okCoded, okUncoded, rawBER)
	}
	if float64(okCoded)/float64(trials) < 0.5 {
		t.Errorf("coded delivery rate %.2f too low", float64(okCoded)/float64(trials))
	}
}
