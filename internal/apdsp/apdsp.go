// Package apdsp implements the access point's wideband receive signal
// processing: the AP digitizes the whole 250 MHz ISM band at once (§5.2's
// baseband processor) and must split it back into per-node links. One
// mechanism does both halves of that split:
//
//   - FilterBank — a uniform polyphase filterbank extracts every node's
//     baseband from the capture in a single pass. FDM: each node's
//     allocated channel is a bin of the bank's grid. SDM: co-channel
//     nodes arrive from different angles and the time-modulated array
//     has hashed them onto different switching harmonics (±k·f_p), so a
//     node's slot is its channel plus its harmonic's shift — still a bin.
//   - SDMSeparator — the TMA seen from the capture side: it synthesizes
//     the single-chain capture of several co-channel nodes.
//
// Together with modem.StreamReceiver this is the full software AP: one
// wideband capture in, every node's frames out (FilterBank.ReceiveAll).
// The bank is pinned ≤1e-9 against a per-channel mix → FIR → decimate
// receiver, the oracle in channelizer_test.go.
//
// Channel-planning constraint: the TMA translates every arriving signal
// by its angle's harmonic (±k·f_p), so the AP must assign FDM channels
// such that the post-TMA frequencies C + m·f_p stay disjoint across
// nodes — see cmd/mmx-ap for a worked plan.
package apdsp

import (
	"errors"

	"mmx/internal/modem"
	"mmx/internal/tma"
)

// Errors from channel extraction.
var (
	ErrBadChannel = errors.New("apdsp: channel not representable in this capture")
	ErrBadRate    = errors.New("apdsp: output rate must integer-divide the wideband rate")
	ErrAliased    = errors.New("apdsp: dst must not alias the capture")
)

// ChannelConfig returns the modem numerology for a channel extracted at
// outRate: symbol rate unchanged, FSK tones at ±fskOffset/2.
func ChannelConfig(outRate, symbolRate, fskOffsetHz float64) modem.Config {
	return modem.Config{
		SampleRate: outRate,
		SymbolRate: symbolRate,
		F0:         -fskOffsetHz / 2,
		F1:         +fskOffsetHz / 2,
	}
}

// SDMSeparator is the AP's time-modulated array as the capture sees it:
// the single-chain output co-channel nodes sum into.
type SDMSeparator struct {
	// Array is the AP's time-modulated array (its switching rate sets
	// the harmonic spacing, which must exceed the channel bandwidth).
	Array *tma.Array
	// WidebandRate is the capture rate of the TMA output.
	WidebandRate float64
}

// NewSDMSeparator wraps a TMA sampled at widebandRate.
func NewSDMSeparator(a *tma.Array, widebandRate float64) *SDMSeparator {
	return &SDMSeparator{Array: a, WidebandRate: widebandRate}
}

// NodeCapture describes one co-channel transmission for SDM synthesis in
// tests and demos: its angle of arrival and wideband waveform.
type NodeCapture = tma.Source

// MixSDM runs the TMA over co-channel node waveforms — the AP-side
// counterpart of several nodes transmitting at once on one channel.
func (s *SDMSeparator) MixSDM(nodes []NodeCapture) []complex128 {
	return s.Array.MixInto(nil, nodes, s.WidebandRate)
}
