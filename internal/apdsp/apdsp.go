// Package apdsp implements the access point's wideband receive signal
// processing: the AP digitizes the whole 250 MHz ISM band at once (§5.2's
// baseband processor) and must split it back into per-node links. One
// mechanism does that split: FilterBank, a uniform polyphase filterbank,
// extracts every node's baseband from the capture in a single pass. FDM:
// each node's allocated channel is a bin of the bank's grid. SDM:
// co-channel nodes arrive from different angles and the time-modulated
// array has hashed them onto different switching harmonics (±k·f_p), so a
// node's slot is its channel plus its harmonic's shift — still a bin. The
// single-chain capture such nodes sum into is tma.Array.MixInto's.
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
