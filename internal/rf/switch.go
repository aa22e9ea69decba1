package rf

import "math"

// SPDTSwitch models the ADRF5020 single-pole double-throw switch that
// routes the VCO carrier to one of the node's two antenna arrays. Its
// maximum toggle rate is the mmX data-rate ceiling (§9.1: 100 MHz switch
// ⇒ 100 Mbps), and its finite isolation leaks a little carrier into the
// unselected beam, which the OTAM waveform model includes.
type SPDTSwitch struct {
	// InsertionLossDB is the through-path loss (<2 dB for the ADRF5020).
	InsertionLossDB float64
	// IsolationDB is the suppression of the unselected port (65 dB).
	IsolationDB float64
	// MaxToggleHz is the fastest the control line can switch ports.
	MaxToggleHz float64
}

// NewADRF5020 returns the switch with datasheet parameters.
func NewADRF5020() *SPDTSwitch {
	return &SPDTSwitch{InsertionLossDB: 2, IsolationDB: 65, MaxToggleHz: 100e6}
}

// MaxBitRate returns the highest OOK symbol rate (= bit rate, 1 bit/symbol)
// the switch supports: one beam toggle per bit.
func (s *SPDTSwitch) MaxBitRate() float64 { return s.MaxToggleHz }

// SelectedGain returns the linear field (amplitude) gain of the selected
// path: the insertion loss.
func (s *SPDTSwitch) SelectedGain() float64 {
	return math.Pow(10, -s.InsertionLossDB/20)
}

// LeakageGain returns the linear field gain into the unselected port:
// insertion loss plus isolation.
func (s *SPDTSwitch) LeakageGain() float64 {
	return math.Pow(10, -(s.InsertionLossDB+s.IsolationDB)/20)
}
