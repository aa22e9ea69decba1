// Package core implements the paper's primary contribution: the OTAM
// (Over-The-Air Modulation) link between an mmX IoT node and the access
// point. A node never modulates its carrier in the classical sense —
// it routes a pure VCO tone through one of two orthogonal fixed beams per
// bit, and the differing path losses of the two beams impose ASK at the
// AP, while a small per-beam VCO frequency offset adds the FSK dimension
// (joint ASK-FSK, §6.3). The package composes the channel model, antenna
// patterns, RF component models, and modem into end-to-end link
// evaluation (SNR/BER at any pose, the data behind Figs. 10–12) and
// waveform-level packet transmission.
package core

import (
	"math"
	"math/cmplx"

	"mmx/internal/antenna"
	"mmx/internal/channel"
	"mmx/internal/modem"
	"mmx/internal/rf"
	"mmx/internal/units"
)

// LinkConfig holds the link-budget and air-interface parameters shared by
// every mmX link.
type LinkConfig struct {
	// TxPowerDBm is the VCO's conducted output power (12 dBm for the
	// HMC533; the switch's insertion loss brings the radiated power to
	// the paper's 10 dBm).
	TxPowerDBm float64
	// BandwidthHz is the receiver's demodulation bandwidth (25 MHz: the
	// per-node sub-band the prototype's USRP captures, §9.5).
	BandwidthHz float64
	// NoiseFigureDB is the AP front end's cascade noise figure.
	NoiseFigureDB float64
	// ImplementationLossDB lumps every non-modelled impairment —
	// envelope-detector loss, CFO, phase noise, polarization mismatch,
	// indoor clutter beyond the image-method walls — into one margin.
	// Its default (22 dB) is calibrated so the simulated Fig. 12 matches
	// the paper's anchors (≈40 dB at 1 m, ≥15 dB at 18 m facing).
	ImplementationLossDB float64
	// Modem is the baseband numerology (symbol rate, FSK tones).
	Modem modem.Config
	// ASKExtinction is the residual carrier amplitude (relative) a
	// conventional fixed-beam ASK transmitter emits for bit 0 (finite
	// on/off ratio). OTAM does not use it.
	ASKExtinction float64
}

// DefaultLinkConfig returns the calibrated configuration used by all
// experiments.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		TxPowerDBm:           12,
		BandwidthHz:          25e6,
		NoiseFigureDB:        rf.APFrontEndNoiseFigureDB(),
		ImplementationLossDB: 22,
		Modem:                modem.DefaultConfig(),
		ASKExtinction:        0.1,
	}
}

// NoisePowerW returns the receiver noise power in watts implied by the
// bandwidth and noise figure.
func (c LinkConfig) NoisePowerW() float64 {
	return units.ThermalNoisePower(c.BandwidthHz) * units.FromDB(c.NoiseFigureDB)
}

// Link is one node→AP connection embedded in a propagation environment.
type Link struct {
	Env *channel.Environment
	// Node is the IoT node's pose (boresight = Beam 1 peak direction).
	Node channel.Pose
	// AP is the access point's pose.
	AP channel.Pose
	// Beams are the node's two orthogonal transmit patterns.
	Beams antenna.NodeBeams
	// APPattern is the AP's receive antenna.
	APPattern antenna.Pattern
	// Switch models the SPDT routing the carrier between beams.
	Switch *rf.SPDTSwitch
	Cfg    LinkConfig

	// Waveform-path scratch, lazily initialized and reused across calls.
	// Link evaluation (Evaluate/EvaluateWithClass) never touches these and
	// stays safe to call concurrently; the waveform methods
	// (TransmitOTAM/TransmitFixedBeam/Receive/MeasureBER) are not safe for
	// concurrent use on one Link.
	txBits   []bool
	vcoModel *rf.VCO
	demod    *modem.Demodulator
	demodCfg modem.Config
}

// NewLink wires a link with the standard mmX hardware models.
func NewLink(env *channel.Environment, node, ap channel.Pose) *Link {
	return &Link{
		Env:       env,
		Node:      node,
		AP:        ap,
		Beams:     antenna.NewNodeBeams(),
		APPattern: antenna.NewAPAntenna(),
		Switch:    rf.NewADRF5020(),
		Cfg:       DefaultLinkConfig(),
	}
}

// Evaluation is the link budget at one instant: the two beams' effective
// channel responses and the derived SNR/BER figures for operation with
// and without OTAM.
type Evaluation struct {
	// H0 and H1 are the raw per-beam complex channel gains (antennas and
	// propagation, no TX power).
	H0, H1 complex128
	// G0 and G1 are the effective received complex amplitudes in √W
	// while transmitting bit 0 / bit 1 with OTAM, including TX power,
	// switch insertion loss and leakage, and the implementation margin.
	G0, G1 complex128
	// NoisePowerW is the receiver noise power.
	NoisePowerW float64
	// SNRWithOTAM is the paper's reported link SNR (peak received power
	// over noise) when the node uses both beams (Figs. 10b, 12, 13).
	SNRWithOTAM float64
	// SNRWithoutOTAM is the link SNR when the node transmits classical
	// ASK through Beam 1 only (Fig. 10a's baseline).
	SNRWithoutOTAM float64
	// ASKDepth ∈ [0,1] is the over-the-air modulation depth
	// |A1−A0|/(A1+A0); near zero is the §6.3 equal-loss corner where
	// only FSK decodes.
	ASKDepth float64
	// Inverted reports that Beam 0 arrives stronger than Beam 1
	// (blocked-LoS regime of Fig. 4(b)).
	Inverted bool
	// PathClass is "los", "nlos" or "blocked" — populated only by
	// EvaluateWithClass, which derives it from the same path enumeration
	// as the gains.
	PathClass string
}

// implAmp converts the implementation margin to an amplitude factor.
func (c LinkConfig) implAmp() float64 {
	return math.Pow(10, -c.ImplementationLossDB/20)
}

// Evaluate computes the instantaneous link budget.
func (l *Link) Evaluate() Evaluation {
	h0, h1 := l.Env.BeamGains(l.Node, l.Beams, l.AP, l.APPattern)
	return l.evaluateGains(h0, h1)
}

// EvaluateWithClass is Evaluate plus the propagation path class, computed
// from the same path enumeration instead of the second one a separate
// BestPathClass call would pay. The gains (and everything derived from
// them) are Evaluate's: both run channel.BeamGainsWithClass. This is the
// network engine's per-node hot path.
func (l *Link) EvaluateWithClass() Evaluation {
	h0, h1, class := l.Env.BeamGainsWithClass(l.Node, l.Beams, l.AP, l.APPattern)
	ev := l.evaluateGains(h0, h1)
	ev.PathClass = class
	return ev
}

func (l *Link) evaluateGains(h0, h1 complex128) Evaluation {
	amp := math.Sqrt(units.FromDBm(l.Cfg.TxPowerDBm)) * l.Cfg.implAmp()
	sel := complex(l.Switch.SelectedGain(), 0)
	leak := complex(l.Switch.LeakageGain(), 0)
	// While bit b is sent, the selected beam carries the carrier and the
	// other port leaks 65 dB down; both arrive through their own paths.
	g0 := complex(amp, 0) * (sel*h0 + leak*h1)
	g1 := complex(amp, 0) * (sel*h1 + leak*h0)

	n := l.Cfg.NoisePowerW()
	a0 := cmplx.Abs(g0)
	a1 := cmplx.Abs(g1)
	peak := math.Max(a0, a1)

	depth := 0.0
	if a0+a1 > 0 {
		depth = math.Abs(a1-a0) / (a1 + a0)
	}
	return Evaluation{
		H0: h0, H1: h1,
		G0: g0, G1: g1,
		NoisePowerW:    n,
		SNRWithOTAM:    units.DB(peak * peak / n),
		SNRWithoutOTAM: units.DB(a1 * a1 / n),
		ASKDepth:       depth,
		Inverted:       a0 > a1,
	}
}

// BERWithOTAM converts the OTAM link SNR into a bit-error rate the way
// §9.3 does: standard ASK tables on the measured SNR (joint ASK-FSK
// guarantees one modality always decodes, so peak SNR is the operative
// quantity).
func (e Evaluation) BERWithOTAM() float64 { return modem.OOKBER(e.SNRWithOTAM) }

// BERWithoutOTAM is the same table applied to the fixed-beam SNR.
func (e Evaluation) BERWithoutOTAM() float64 { return modem.OOKBER(e.SNRWithoutOTAM) }

// ASKOnlyBER estimates the BER if the receiver could only slice
// amplitudes: the slicer's effective SNR shrinks with the modulation
// depth, so equal-loss channels are undecodable — the ablation behind
// §6.3's "ASK alone is not sufficient".
func (e Evaluation) ASKOnlyBER() float64 {
	if e.ASKDepth <= 0 {
		return 0.5
	}
	eff := e.SNRWithOTAM + 20*math.Log10(e.ASKDepth)
	return modem.OOKBER(eff)
}

// FSKOnlyBER estimates the BER if the receiver could only discriminate
// tones: it needs both tones to arrive, so the weaker beam's SNR governs,
// and a fully faded beam is undecodable — the other half of §6.3.
func (e Evaluation) FSKOnlyBER() float64 {
	a0 := cmplx.Abs(e.G0)
	a1 := cmplx.Abs(e.G1)
	weaker := math.Min(a0, a1)
	if weaker <= 0 || e.NoisePowerW <= 0 {
		return 0.5
	}
	return modem.FSKBER(units.DB(weaker * weaker / e.NoisePowerW))
}

// JointBER is the decode probability of the actual mmX receiver: the
// better of the two modalities per channel instance.
func (e Evaluation) JointBER() float64 {
	return math.Min(e.ASKOnlyBER(), e.FSKOnlyBER())
}
