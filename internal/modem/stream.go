package modem

// StreamFrame is one frame recovered from a continuous capture.
type StreamFrame struct {
	// Payload is the CRC-clean payload.
	Payload []byte
	// Offset is the frame's start sample in the capture.
	Offset int
	// Result carries the demodulation metadata.
	Result DemodResult
}

// StreamReceiver scans a long capture for back-to-back frames — the AP's
// real operating mode, where a node streams frames separated by idle
// gaps. Frames whose preamble correlation falls below MinSyncScore are
// treated as absent, terminating the scan.
type StreamReceiver struct {
	d *Demodulator
	// MinSyncScore is the normalized preamble-correlation floor (0..1)
	// below which the scanner decides no further frame is present.
	MinSyncScore float64
}

// NewStreamReceiver wraps a demodulator for continuous scanning.
func NewStreamReceiver(cfg Config) *StreamReceiver {
	return &StreamReceiver{d: NewDemodulator(cfg), MinSyncScore: 0.55}
}

// ReceiveAll extracts every decodable frame of payloadLen-byte payloads
// from the capture, in order: find the next preamble (first correlation
// peak above the floor), decode at that position, advance past the frame,
// repeat. Each scan window is prepared once: FirstSync prepares x[base:]
// and the decode reads the same series. Frames that sync but fail the
// CRC are skipped (their airtime is consumed); scanning stops when no
// further preamble is found.
func (s *StreamReceiver) ReceiveAll(x []complex128, payloadLen int) []StreamFrame {
	var out []StreamFrame
	nBits := FrameBits(payloadLen)
	if nBits < len(Preamble) {
		return nil // a payloadLen this negative leaves no room for the preamble
	}
	frameSamples := nBits * s.d.cfg.SamplesPerSymbol()
	base := 0
	for len(x)-base >= frameSamples {
		offset, score, ok := s.d.FirstSync(x[base:], s.MinSyncScore)
		if !ok || base+offset+frameSamples > len(x) {
			break
		}
		res := s.d.decodeAt(x[base:], nBits, offset, score)
		payload, perr := ParseFrame(res.Bits)
		if perr == nil {
			res.Offset = base + offset
			// The demodulator reuses its bit buffer on the next call;
			// copy before retaining the result across iterations.
			res.Bits = append([]bool(nil), res.Bits...)
			out = append(out, StreamFrame{
				Payload: payload,
				Offset:  res.Offset,
				Result:  res,
			})
		}
		// Advance past this frame (decoded or not) and keep scanning.
		base += offset + frameSamples
	}
	return out
}
