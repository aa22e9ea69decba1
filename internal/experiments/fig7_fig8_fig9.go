package experiments

import (
	"fmt"
	"math"
	"math/cmplx"

	"mmx/internal/antenna"
	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/dsp"
	"mmx/internal/modem"
	"mmx/internal/rf"
	"mmx/internal/stats"
	"mmx/internal/units"
)

// Fig7Result is the VCO tuning curve (§9.1, Fig. 7).
type Fig7Result struct {
	Volts, FreqGHz []float64
	CoversISM      bool
}

// Fig7 sweeps the VCO control voltage across its range.
func Fig7(points int) Fig7Result {
	v := rf.NewHMC533()
	volts, freqs := v.TuningCurve(points)
	ghz := make([]float64, len(freqs))
	for i, f := range freqs {
		ghz[i] = f / 1e9
	}
	return Fig7Result{Volts: volts, FreqGHz: ghz, CoversISM: v.CoversISMBand()}
}

func (r Fig7Result) table() *Table {
	t := &Table{
		Title:   "Fig. 7 — VCO carrier frequency vs control voltage",
		Headers: []string{"Vtune (V)", "Frequency (GHz)"},
	}
	for i := range r.Volts {
		t.AddRow(f2(r.Volts[i]), f3(r.FreqGHz[i]))
	}
	return t
}

// String renders the Fig. 7 series.
func (r Fig7Result) String() string {
	return r.table().String() + fmt.Sprintf("covers 24 GHz ISM band: %v\n", r.CoversISM)
}

// CSV exports the Fig. 7 series.
func (r Fig7Result) CSV() string { return r.table().CSV() }

// Fig8Result is the node's measured beam patterns (§9.1, Fig. 8).
type Fig8Result struct {
	ThetaDeg         []float64
	Beam0DB, Beam1DB []float64
	// Beam1PeakDeg and Beam0PeakDeg locate the main lobes.
	Beam1PeakDeg  float64
	Beam0PeaksDeg []float64
	// OrthogonalityDB is the mutual null depth at the peaks.
	OrthogonalityDB float64
	// HPBW1Deg is Beam 1's half-power beamwidth.
	HPBW1Deg float64
}

// Fig8 samples both node beams over the azimuth cut.
func Fig8(points int) Fig8Result {
	nb := antenna.NewNodeBeams()
	th0, g0 := antenna.PatternCut(nb.Beam0, points)
	_, g1 := antenna.PatternCut(nb.Beam1, points)
	deg := make([]float64, len(th0))
	for i, t := range th0 {
		deg[i] = units.Rad2Deg(t)
	}
	res := Fig8Result{
		ThetaDeg: deg, Beam0DB: g0, Beam1DB: g1,
		OrthogonalityDB: antenna.Orthogonality(nb.Beam0, nb.Beam1),
		HPBW1Deg:        units.Rad2Deg(antenna.HalfPowerBeamwidth(nb.Beam1, 0)),
	}
	for _, p := range antenna.FindPeaks(nb.Beam1, 2048, 0.5) {
		if math.Abs(p) < units.Deg2Rad(5) {
			res.Beam1PeakDeg = units.Rad2Deg(p)
		}
	}
	for _, p := range antenna.FindPeaks(nb.Beam0, 2048, 1) {
		d := units.Rad2Deg(p)
		if math.Abs(d) < 60 {
			res.Beam0PeaksDeg = append(res.Beam0PeaksDeg, d)
		}
	}
	return res
}

func (r Fig8Result) table(step int) *Table {
	t := &Table{
		Title:   "Fig. 8 — node beam patterns (azimuth cut)",
		Headers: []string{"theta (deg)", "Beam0 (dBi)", "Beam1 (dBi)"},
	}
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.ThetaDeg); i += step {
		t.AddRow(f1(r.ThetaDeg[i]), f1(r.Beam0DB[i]), f1(r.Beam1DB[i]))
	}
	return t
}

// CSV exports the full-resolution azimuth cut.
func (r Fig8Result) CSV() string { return r.table(1).CSV() }

// String renders the Fig. 8 summary plus a coarse cut.
func (r Fig8Result) String() string {
	return r.table(len(r.ThetaDeg)/36).String() + fmt.Sprintf(
		"Beam1 peak: %.1f°  Beam0 peaks: %v°  orthogonality: %.1f dB  HPBW(Beam1): %.1f°\n",
		r.Beam1PeakDeg, r.Beam0PeaksDeg, r.OrthogonalityDB, r.HPBW1Deg)
}

// Fig9Result shows the two §9.1 example captures: (a) distinct path
// losses decoded by ASK, (b) equal losses decoded by FSK.
type Fig9Result struct {
	// EnvelopeA and EnvelopeB are the received envelopes of the first
	// preamble symbols of the two captures.
	EnvelopeA, EnvelopeB []float64
	// ModeA and ModeB are the receiver's chosen decision rules.
	ModeA, ModeB string
	// DecodedA and DecodedB report CRC-clean payload recovery.
	DecodedA, DecodedB bool
	// DepthA and DepthB are the measured ASK modulation depths.
	DepthA, DepthB float64
}

// Fig9 synthesizes both scenario captures and decodes them.
func Fig9(seed uint64) Fig9Result {
	rng := stats.NewRNG(seed)
	env := channel.NewEnvironment(channel.NewRoom(10, 6, rng), units.ISM24GHzCenter)
	payload := []byte("fig9")

	run := func(l *core.Link, forceEqual bool) ([]float64, string, bool, float64) {
		ev := l.Evaluate()
		bits, _ := modem.BuildFrame(payload)
		g0, g1 := ev.G0, ev.G1
		if forceEqual {
			// The rare equal-loss corner: both beams arrive at the same
			// amplitude (paper measures <10% incidence; we force it to
			// show the FSK rescue).
			mag := (cmplx.Abs(g0) + cmplx.Abs(g1)) / 2
			g0 = complex(mag, 0)
			g1 = complex(mag, 0) * cmplx.Rect(1, 0.4)
		}
		x := modem.Synthesize(l.Cfg.Modem, bits, g0, g1)
		dsp.AddNoise(x, ev.NoisePowerW, rng)
		d := modem.NewDemodulator(l.Cfg.Modem)
		got, res, err := d.Receive(x, len(payload))
		decoded := err == nil && string(got) == string(payload)
		spb := l.Cfg.Modem.SamplesPerSymbol()
		envlp := dsp.EnvelopeInto(nil, x[:12*spb])
		// Normalize for display.
		peak := stats.Max(envlp)
		if peak > 0 {
			for i := range envlp {
				envlp[i] /= peak
			}
		}
		return envlp, res.Mode, decoded, res.ASKConfidence
	}

	node := channel.Pose{Pos: channel.Vec2{X: 1, Y: 3}}
	ap := channel.Pose{Pos: channel.Vec2{X: 6, Y: 3}, Orientation: math.Pi}
	la := core.NewLink(env, node, ap)
	envA, modeA, okA, depthA := run(la, false)
	envB, modeB, okB, depthB := run(la, true)
	return Fig9Result{
		EnvelopeA: envA, EnvelopeB: envB,
		ModeA: modeA, ModeB: modeB,
		DecodedA: okA, DecodedB: okB,
		DepthA: depthA, DepthB: depthB,
	}
}

// String renders the Fig. 9 decode summary.
func (r Fig9Result) String() string {
	return fmt.Sprintf(`Fig. 9 — measured signal at the AP
(a) distinct path losses: mode=%s decoded=%v ASK depth=%.2f
(b) equal path losses:    mode=%s decoded=%v ASK depth=%.2f
`, r.ModeA, r.DecodedA, r.DepthA, r.ModeB, r.DecodedB, r.DepthB)
}
