// Package modem implements the mmX physical-layer framing and the joint
// ASK-FSK modulation/demodulation of §5–§6: packet construction with a
// known preamble and CRC, continuous-phase waveform synthesis in which the
// per-symbol complex gain and tone frequency carry the data (the OTAM
// abstraction), and a receiver that synchronizes on the preamble, resolves
// the beam-inversion ambiguity of Fig. 4(b), and decodes each packet with
// an adaptive-threshold ASK slicer, a dual-Goertzel FSK discriminator, or
// their combination — whichever the channel supports.
package modem

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Preamble is the known training sequence that starts every mmX packet
// (§6.1: "a few training bits are used at the beginning of each packet").
// It is a 26-bit pattern with sharp autocorrelation (a doubled 13-bit
// Barker code), balanced enough to expose both amplitude levels, and used
// for three jobs: frame synchronization, ASK threshold training, and
// resolving whether the channel has inverted the bit mapping.
var Preamble = []bool{
	true, true, true, true, true, false, false, true, true, false, true, false, true,
	true, true, true, true, true, false, false, true, true, false, true, false, true,
}

// Frame layout: preamble | 16-bit length | payload | CRC-32. Length and CRC
// are big-endian, bits are MSB-first.
const (
	lenFieldBytes = 2
	crcBytes      = 4
	// MaxPayload bounds a frame's payload size.
	MaxPayload = 1 << 15
)

// Errors returned by frame parsing.
var (
	ErrFrameTooShort  = errors.New("modem: frame shorter than header")
	ErrBadLength      = errors.New("modem: length field exceeds frame")
	ErrCRCMismatch    = errors.New("modem: CRC mismatch")
	ErrPayloadTooLong = errors.New("modem: payload exceeds MaxPayload")
)

// BitsToBytes packs MSB-first bits into bytes; trailing bits that do not
// fill a byte are dropped.
func BitsToBytes(bits []bool) []byte {
	out := make([]byte, len(bits)/8)
	for i := range out {
		var b byte
		for j := 0; j < 8; j++ {
			b <<= 1
			if bits[i*8+j] {
				b |= 1
			}
		}
		out[i] = b
	}
	return out
}

// BuildFrame wraps a payload into a transmittable bit stream:
// preamble + length + payload + CRC-32 (IEEE).
func BuildFrame(payload []byte) ([]bool, error) {
	return AppendFrame(nil, payload)
}

// AppendFrame is BuildFrame with append-style buffer reuse: the frame bits
// are appended to dst (which may be nil or a recycled buffer resliced to
// zero length). With sufficient capacity it allocates nothing.
func AppendFrame(dst []bool, payload []byte) ([]bool, error) {
	if len(payload) > MaxPayload {
		return nil, ErrPayloadTooLong
	}
	dst = append(dst, Preamble...)
	n := uint16(len(payload))
	dst = appendByteBits(dst, byte(n>>8))
	dst = appendByteBits(dst, byte(n))
	for _, b := range payload {
		dst = appendByteBits(dst, b)
	}
	crc := crc32.ChecksumIEEE(payload)
	for shift := 24; shift >= 0; shift -= 8 {
		dst = appendByteBits(dst, byte(crc>>uint(shift)))
	}
	return dst, nil
}

// appendByteBits appends one byte MSB-first.
func appendByteBits(dst []bool, b byte) []bool {
	for i := 7; i >= 0; i-- {
		dst = append(dst, b&(1<<uint(i)) != 0)
	}
	return dst
}

// FrameBits returns the total number of bits in a frame carrying n payload
// bytes.
func FrameBits(payloadLen int) int {
	return len(Preamble) + (lenFieldBytes+payloadLen+crcBytes)*8
}

// ParseFrame validates and strips the framing from a received bit stream
// that starts with the preamble. It returns the payload or a framing
// error. The caller is responsible for having aligned (and, if necessary,
// un-inverted) the bits; see Demodulator.
func ParseFrame(bits []bool) ([]byte, error) {
	if len(bits) < len(Preamble)+(lenFieldBytes+crcBytes)*8 {
		return nil, ErrFrameTooShort
	}
	body := BitsToBytes(bits[len(Preamble):])
	if len(body) < lenFieldBytes+crcBytes {
		return nil, ErrFrameTooShort
	}
	n := int(binary.BigEndian.Uint16(body[:lenFieldBytes]))
	if n > MaxPayload {
		return nil, ErrBadLength
	}
	if lenFieldBytes+n+crcBytes > len(body) {
		return nil, ErrBadLength
	}
	payload := body[lenFieldBytes : lenFieldBytes+n]
	got := binary.BigEndian.Uint32(body[lenFieldBytes+n : lenFieldBytes+n+crcBytes])
	if got != crc32.ChecksumIEEE(payload) {
		return nil, ErrCRCMismatch
	}
	out := make([]byte, n)
	copy(out, payload)
	return out, nil
}

// CountBitErrors returns the number of positions where a and b disagree
// (comparing up to the shorter length) plus the length difference.
func CountBitErrors(a, b []bool) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	errs := len(a) - n + len(b) - n
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			errs++
		}
	}
	return errs
}
