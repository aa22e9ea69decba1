package mmx

import (
	"errors"
	"math"

	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/fec"
	"mmx/internal/modem"
	"mmx/internal/stats"
	"mmx/internal/units"
)

// Pose places a device in the environment: position in meters and the
// azimuth (radians) its boresight faces. For a node, the boresight is
// Beam 1's peak; for the AP it is the receive antenna's peak.
type Pose struct {
	X, Y float64
	// FacingRad is the boresight azimuth in world coordinates (0 = +x).
	FacingRad float64
	// Height is the mounting height relative to the AP's reference plane
	// (m). Height differences tilt through the antennas' wide elevation
	// beams (65° for the node's patches), so modest offsets cost little.
	Height float64
}

func (p Pose) internal() channel.Pose {
	return channel.Pose{
		Pos:         channel.Vec2{X: p.X, Y: p.Y},
		Orientation: p.FacingRad,
		Height:      p.Height,
	}
}

// Facing returns a pose at (x, y) oriented toward the target point —
// convenient for aiming nodes at the AP.
func Facing(x, y, targetX, targetY float64) Pose {
	return Pose{X: x, Y: y, FacingRad: math.Atan2(targetY-y, targetX-x)}
}

// Environment is a simulated indoor propagation scene: a rectangular room
// with reflecting walls and optional moving human blockers, at the 24 GHz
// ISM band.
type Environment struct {
	env *channel.Environment
	rng *stats.RNG
}

// NewEnvironment creates a width x height meter room. The seed fixes the
// walls' reflectivities and all subsequent randomness derived from the
// environment.
func NewEnvironment(width, height float64, seed uint64) *Environment {
	rng := stats.NewRNG(seed)
	return &Environment{
		env: channel.NewEnvironment(channel.NewRoom(width, height, rng), units.ISM24GHzCenter),
		rng: rng,
	}
}

// AddBlocker places a human-scale obstacle (loss drawn from the paper's
// 10–15 dB blockage class). A non-zero velocity makes it walk, bouncing
// off walls.
func (e *Environment) AddBlocker(x, y, vx, vy float64) {
	e.env.AddBlocker(&channel.Blocker{
		Pos:    channel.Vec2{X: x, Y: y},
		Radius: 0.3,
		LossDB: e.rng.Uniform(10, 15),
		Vel:    channel.Vec2{X: vx, Y: vy},
	})
}

// Link is one mmX node→AP connection with the standard hardware models
// (HMC533 VCO, ADRF5020 switch, orthogonal beam pair, LNA/filter/mixer AP
// front end) and the calibrated link budget.
type Link struct {
	l   *core.Link
	rng *stats.RNG
}

// NewLink places a node and the AP in the environment.
func (e *Environment) NewLink(node, ap Pose) *Link {
	return &Link{
		l:   core.NewLink(e.env, node.internal(), ap.internal()),
		rng: e.rng.Fork(),
	}
}

// SetNodePose moves or rotates the node (e.g. to simulate a user bumping
// a camera). No re-association is needed — that is OTAM's point.
func (lk *Link) SetNodePose(p Pose) { lk.l.Node = p.internal() }

// LinkQuality is a snapshot of the link budget.
type LinkQuality struct {
	// SNRdB is the OTAM link SNR the paper reports (peak received power
	// over noise, using the better of the two beams).
	SNRdB float64
	// FixedBeamSNRdB is what a conventional fixed-beam ASK radio would
	// get through Beam 1 alone ("without OTAM").
	FixedBeamSNRdB float64
	// BER is the analytic error rate of the joint ASK-FSK link.
	BER float64
	// ASKDepth is the over-the-air amplitude modulation depth in [0,1].
	ASKDepth float64
	// Inverted reports the Fig. 4(b) regime: Beam 0 arriving stronger
	// than Beam 1 (e.g. LoS blocked), which the receiver's preamble
	// handling absorbs.
	Inverted bool
}

// Quality evaluates the instantaneous link budget.
func (lk *Link) Quality() LinkQuality {
	ev := lk.l.Evaluate()
	return LinkQuality{
		SNRdB:          ev.SNRWithOTAM,
		FixedBeamSNRdB: ev.SNRWithoutOTAM,
		BER:            ev.BERWithOTAM(),
		ASKDepth:       ev.ASKDepth,
		Inverted:       ev.Inverted,
	}
}

// Send transmits one payload over the air with OTAM and returns the AP's
// received complex-baseband capture (dead air, the frame, receiver noise —
// everything the demodulator has to handle).
func (lk *Link) Send(payload []byte) ([]complex128, error) {
	return lk.l.TransmitOTAM(payload, lk.rng.Intn(40), lk.rng)
}

// ReceiveResult reports a decoded frame.
type ReceiveResult struct {
	Payload []byte
	// Mode is the decision rule that carried the frame: "ask", "fsk" or
	// "joint".
	Mode string
	// Inverted reports that the preamble detected and corrected a
	// flipped amplitude mapping.
	Inverted bool
}

// Receive demodulates a capture holding a frame with payloadLen payload
// bytes (synchronization, inversion resolution, joint ASK-FSK decision,
// CRC check).
func (lk *Link) Receive(capture []complex128, payloadLen int) (ReceiveResult, error) {
	payload, res, err := lk.l.Receive(capture, payloadLen)
	if err != nil {
		return ReceiveResult{}, err
	}
	return ReceiveResult{Payload: payload, Mode: res.Mode, Inverted: res.Inverted}, nil
}

// MeasureBER Monte-Carlo-measures the link's bit error rate over nFrames
// random frames, through the full waveform pipeline.
func (lk *Link) MeasureBER(nFrames int, useOTAM bool) float64 {
	return lk.l.MeasureBER(nFrames, 16, useOTAM, lk.rng)
}

// SendCoded transmits a payload protected by the Hamming(7,4)+interleaver
// code of §9.3's error-correction suggestion. The coded frame is 7/4 the
// size but survives residual bit errors (and beam-clipping bursts) that
// would fail an uncoded frame's CRC.
func (lk *Link) SendCoded(payload []byte) ([]complex128, error) {
	return lk.l.TransmitOTAM(fec.NewCodec().Encode(payload), lk.rng.Intn(40), lk.rng)
}

// ReceiveCoded demodulates and decodes a capture produced by SendCoded.
// It returns the payload, how many channel bit errors the code corrected,
// and the demodulation metadata.
func (lk *Link) ReceiveCoded(capture []complex128, payloadLen int) (ReceiveResult, int, error) {
	codec := fec.NewCodec()
	codedLen := codec.Overhead(payloadLen)
	coded, res, err := lk.l.Receive(capture, codedLen)
	if err != nil {
		// The CRC covers the coded payload: a mismatch can still hide a
		// correctable pattern, so fall back to raw demodulation and let
		// the code try. Only CRC errors are recoverable this way.
		if !errors.Is(err, modem.ErrCRCMismatch) {
			return ReceiveResult{}, 0, err
		}
		d := modem.NewDemodulator(lk.l.Cfg.Modem)
		res2, err2 := d.Demodulate(capture, modem.FrameBits(codedLen))
		if err2 != nil {
			return ReceiveResult{}, 0, err
		}
		res = res2
		body := modem.BitsToBytes(res.Bits[len(modem.Preamble):])
		if len(body) < 2+codedLen {
			return ReceiveResult{}, 0, err
		}
		coded = body[2 : 2+codedLen]
	}
	payload, corrections, err := codec.Decode(coded, payloadLen)
	if err != nil {
		return ReceiveResult{}, 0, err
	}
	return ReceiveResult{Payload: payload, Mode: res.Mode, Inverted: res.Inverted}, corrections, nil
}

// AdaptRate returns the fastest rate (bps) from the node's rate ladder —
// implemented by changing the SPDT switching speed (§5.1) — at which the
// link meets the target BER, or 0 if no rate closes the link.
func (lk *Link) AdaptRate(targetBER float64) float64 {
	return lk.l.AdaptRate(targetBER)
}

// WallMaterial selects an interior partition's 24 GHz loss profile.
type WallMaterial int

// Interior wall materials with typical 24 GHz reflection/penetration
// losses.
const (
	// Drywall: modest bounce loss, passable (≈7 dB through).
	Drywall WallMaterial = iota
	// Glass: reflective and fairly transparent.
	Glass
	// Concrete: a strong reflector that is effectively opaque.
	Concrete
)

// AddWall places an interior partition between (x1,y1) and (x2,y2). The
// partition both reflects (adding NLoS paths) and occludes (paths through
// it pay the material's penetration loss).
func (e *Environment) AddWall(x1, y1, x2, y2 float64, m WallMaterial) {
	var refl, pen float64
	switch m {
	case Glass:
		refl, pen = 10, 3
	case Concrete:
		refl, pen = 6, 40
	default: // Drywall
		refl, pen = 8, 7
	}
	e.env.Room.AddInteriorWall(channel.Segment{
		A: channel.Vec2{X: x1, Y: y1},
		B: channel.Vec2{X: x2, Y: y2},
	}, refl, pen)
}
