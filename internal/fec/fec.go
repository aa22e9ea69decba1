// Package fec provides the forward error correction the paper points to in
// §9.3 ("this physical BER ... can be reduced even further by using an
// error correction coding scheme"): a Hamming(7,4) single-error-correcting
// block code plus a block interleaver that spreads burst errors (a blocker
// sweeping through a beam corrupts consecutive bits) across many code
// blocks. The coding layer sits between a payload and the modem framing —
// encode before modem.BuildFrame, decode after ParseFrame.
package fec

import (
	"errors"
	"fmt"
)

// Hamming(7,4): each 4 data bits d1..d4 become 7 bits with parity bits at
// positions 1, 2, 4 (1-indexed), giving single-bit error correction per
// block. Rate 4/7.

// EncodeBlock expands a 4-bit nibble (d[0..3]) into a 7-bit codeword.
func EncodeBlock(d [4]bool) [7]bool {
	p1 := d[0] != d[1] != d[3] // covers positions 3,5,7
	p2 := d[0] != d[2] != d[3] // covers positions 3,6,7
	p3 := d[1] != d[2] != d[3] // covers positions 5,6,7
	return [7]bool{p1, p2, d[0], p3, d[1], d[2], d[3]}
}

// DecodeBlock corrects up to one flipped bit in a 7-bit codeword and
// returns the 4 data bits plus whether a correction was applied.
func DecodeBlock(c [7]bool) (d [4]bool, corrected bool) {
	s1 := c[0] != c[2] != c[4] != c[6]
	s2 := c[1] != c[2] != c[5] != c[6]
	s3 := c[3] != c[4] != c[5] != c[6]
	syndrome := 0
	if s1 {
		syndrome |= 1
	}
	if s2 {
		syndrome |= 2
	}
	if s3 {
		syndrome |= 4
	}
	if syndrome != 0 {
		c[syndrome-1] = !c[syndrome-1]
		corrected = true
	}
	return [4]bool{c[2], c[4], c[5], c[6]}, corrected
}

// EncodeBits Hamming-encodes a bit stream (padded with zeros to a multiple
// of 4). The original length must be conveyed out of band (the mmX frame
// header's length field already does this at the byte level).
func EncodeBits(bits []bool) []bool {
	n := (len(bits) + 3) / 4
	out := make([]bool, 0, n*7)
	for i := 0; i < n; i++ {
		var d [4]bool
		for j := 0; j < 4; j++ {
			if k := i*4 + j; k < len(bits) {
				d[j] = bits[k]
			}
		}
		cw := EncodeBlock(d)
		out = append(out, cw[:]...)
	}
	return out
}

// ErrBadLength reports a coded stream whose length is not a multiple of 7.
var ErrBadLength = errors.New("fec: coded length not a multiple of 7")

// DecodeBits corrects and strips the Hamming code, returning want data
// bits and the number of blocks that needed correction.
func DecodeBits(coded []bool, want int) ([]bool, int, error) {
	if len(coded)%7 != 0 {
		return nil, 0, ErrBadLength
	}
	if want > len(coded)/7*4 {
		return nil, 0, fmt.Errorf("fec: want %d bits from %d blocks: %w",
			want, len(coded)/7, ErrBadLength)
	}
	out := make([]bool, 0, len(coded)/7*4)
	corrections := 0
	for i := 0; i+7 <= len(coded); i += 7 {
		var cw [7]bool
		copy(cw[:], coded[i:i+7])
		d, corrected := DecodeBlock(cw)
		if corrected {
			corrections++
		}
		out = append(out, d[:]...)
	}
	return out[:want], corrections, nil
}

// Interleave reorders bits with a block interleaver: the stream is laid
// out row-wise into rows of `depth` bits and transmitted column-wise.
// A burst of up to ⌈len/depth⌉ (the row count) consecutive channel errors
// then hits each row at most once — and, when depth is a multiple of the
// 7-bit codeword length so codewords never straddle rows, each codeword
// at most once.
func Interleave(bits []bool, depth int) []bool {
	if depth <= 1 || len(bits) == 0 {
		return append([]bool(nil), bits...)
	}
	rows := (len(bits) + depth - 1) / depth
	out := make([]bool, 0, len(bits))
	for col := 0; col < depth; col++ {
		for row := 0; row < rows; row++ {
			if idx := row*depth + col; idx < len(bits) {
				out = append(out, bits[idx])
			}
		}
	}
	return out
}

// Deinterleave inverts Interleave for the same depth and length.
func Deinterleave(bits []bool, depth int) []bool {
	if depth <= 1 || len(bits) == 0 {
		return append([]bool(nil), bits...)
	}
	rows := (len(bits) + depth - 1) / depth
	out := make([]bool, len(bits))
	pos := 0
	for col := 0; col < depth; col++ {
		for row := 0; row < rows; row++ {
			if idx := row*depth + col; idx < len(bits) {
				out[idx] = bits[pos]
				pos++
			}
		}
	}
	return out
}

// Codec bundles the Hamming code with an interleaver into a byte-level
// payload transform.
type Codec struct {
	// InterleaveDepth is the interleaver row length. It must be a
	// multiple of 7 so codewords never straddle rows; 0 disables
	// interleaving. Burst tolerance of a coded frame is its row count,
	// ⌈codedBits/InterleaveDepth⌉.
	InterleaveDepth int
}

// NewCodec returns a codec with a row length suited to mmX frames (two
// codewords per row; a 64-byte payload tolerates ~64-bit bursts).
func NewCodec() *Codec { return &Codec{InterleaveDepth: 14} }

// codedBits returns the Hamming-coded bit count for n payload bytes, and
// paddedBits the interleaver-padded count.
func (c *Codec) codedBits(n int) (coded, padded int) {
	coded = (n*8 + 3) / 4 * 7
	padded = coded
	if c.InterleaveDepth > 1 {
		d := c.InterleaveDepth
		padded = (coded + d - 1) / d * d
	}
	return coded, padded
}

// Overhead returns the coded size in bytes for n payload bytes.
func (c *Codec) Overhead(n int) int {
	_, padded := c.codedBits(n)
	return (padded + 7) / 8
}

// Encode protects a payload: Hamming encode, pad to whole interleaver
// rows, interleave, pack to bytes.
func (c *Codec) Encode(payload []byte) []byte {
	coded := EncodeBits(bytesToBits(payload))
	_, padded := c.codedBits(len(payload))
	for len(coded) < padded {
		coded = append(coded, false)
	}
	coded = Interleave(coded, c.InterleaveDepth)
	return bitsToBytesPadded(coded)
}

// Decode inverts Encode, returning the original n-byte payload and how
// many single-bit corrections were applied.
func (c *Codec) Decode(coded []byte, n int) ([]byte, int, error) {
	bits := bytesToBits(coded)
	codedLen, padded := c.codedBits(n)
	if padded > len(bits) {
		return nil, 0, ErrBadLength
	}
	bits = Deinterleave(bits[:padded], c.InterleaveDepth)
	data, corrections, err := DecodeBits(bits[:codedLen], n*8)
	if err != nil {
		return nil, 0, err
	}
	out := make([]byte, n)
	for i := range out {
		var b byte
		for j := 0; j < 8; j++ {
			b <<= 1
			if data[i*8+j] {
				b |= 1
			}
		}
		out[i] = b
	}
	return out, corrections, nil
}

func bytesToBits(data []byte) []bool {
	bits := make([]bool, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			bits = append(bits, b&(1<<uint(i)) != 0)
		}
	}
	return bits
}

func bitsToBytesPadded(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8)
	for i, bit := range bits {
		if bit {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}
