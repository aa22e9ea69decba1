package experiments

import (
	"bytes"
	"fmt"
	"math"

	"mmx/internal/antenna"
	"mmx/internal/channel"
	"mmx/internal/core"
	"mmx/internal/fec"
	"mmx/internal/mac"
	"mmx/internal/simnet"
	"mmx/internal/stats"
	"mmx/internal/units"
)

// The paper's forward-pointing remarks, built out as measurable
// extensions: error-correction coding (§9.3), narrower beams for range
// (§9.1), back-side coverage with extra patch arrays (§9.1), and scaling
// into the 7 GHz-wide 60 GHz band (§7a).

// ExtFECResult compares coded and uncoded frame delivery on a marginal
// link, through the real waveform pipeline.
type ExtFECResult struct {
	SNRdB float64
	// DeliveredUncoded / DeliveredCoded: frames recovered out of Trials.
	Trials                           int
	DeliveredUncoded, DeliveredCoded int
	MeanCorrections                  float64
	OverheadRatio                    float64
	// RawBER is the residual channel bit-error rate at this pose.
	RawBER float64
}

// ExtFEC evaluates a link at the edge of the paper's range (where the
// analytic OOK BER sits around 10⁻³) and pushes frames through the same
// residual-bit-error channel simnet uses for frame delivery: every frame
// bit flips independently with the link's BER. Uncoded frames need a
// clean CRC; coded frames let the Hamming+interleaver repair the flips.
func ExtFEC(seed uint64, trials int) ExtFECResult {
	rng := stats.NewRNG(seed)
	env := channel.NewEnvironment(channel.NewRoom(55, 6, rng), units.ISM24GHzCenter)
	node := channel.Pose{Pos: channel.Vec2{X: 1, Y: 3}}
	ap := channel.Pose{Pos: channel.Vec2{X: 51, Y: 3}, Orientation: math.Pi}
	l := core.NewLink(env, node, ap)
	ev := l.Evaluate()
	ber := ev.BERWithOTAM()

	codec := fec.NewCodec()
	payload := make([]byte, 24)
	res := ExtFECResult{
		Trials:        trials,
		SNRdB:         ev.SNRWithOTAM,
		RawBER:        ber,
		OverheadRatio: float64(codec.Overhead(len(payload))) / float64(len(payload)),
	}
	flip := func(data []byte) []byte {
		out := append([]byte(nil), data...)
		for i := 0; i < len(out)*8; i++ {
			if rng.Float64() < ber {
				out[i/8] ^= 1 << uint(7-i%8)
			}
		}
		return out
	}
	totalCorr := 0
	for i := 0; i < trials; i++ {
		for j := range payload {
			payload[j] = byte(rng.Uint64())
		}
		// Uncoded: CRC passes only if every bit survived (the CRC field
		// itself is part of the frame and flips too, but any flip fails
		// the check either way).
		if bytes.Equal(flip(payload), payload) {
			res.DeliveredUncoded++
		}
		// Coded: same channel, then the codec repairs what it can.
		coded := flip(codec.Encode(payload))
		if got, corr, err := codec.Decode(coded, len(payload)); err == nil && bytes.Equal(got, payload) {
			res.DeliveredCoded++
			totalCorr += corr
		}
	}
	if res.DeliveredCoded > 0 {
		res.MeanCorrections = float64(totalCorr) / float64(res.DeliveredCoded)
	}
	return res
}

// String renders the FEC extension result.
func (r ExtFECResult) String() string {
	return fmt.Sprintf(`Extension — error-correction coding (§9.3)
link SNR:            %.1f dB (raw BER %.1e)
uncoded deliveries:  %d/%d
coded deliveries:    %d/%d (rate 4/7 + depth-14 interleaver, %.2fx airtime)
mean corrections:    %.1f bits/frame
`, r.SNRdB, r.RawBER, r.DeliveredUncoded, r.Trials, r.DeliveredCoded, r.Trials,
		r.OverheadRatio, r.MeanCorrections)
}

// ExtBeamRow is one antenna-size point of the range/FoV tradeoff.
type ExtBeamRow struct {
	Elements     int
	PeakGainDBi  float64
	FoVDeg       float64
	RangeAt10dBm float64 // meters to the 10 dB SNR contour, facing
}

// ExtNarrowBeamResult sweeps array size (§9.1's "narrower beams to improve
// the range at the cost of narrower field of view").
type ExtNarrowBeamResult struct{ Rows []ExtBeamRow }

// ExtNarrowBeam measures peak gain, field of view, and achievable range
// for 2-, 4- and 8-element node arrays.
func ExtNarrowBeam(seed uint64) ExtNarrowBeamResult {
	rng := stats.NewRNG(seed)
	env := channel.NewEnvironment(channel.NewRoom(80, 8, rng), units.ISM24GHzCenter)
	env.MaxReflections = 0 // free-space-like corridor for a clean contour
	var res ExtNarrowBeamResult
	for _, n := range []int{2, 4, 8} {
		var beams antenna.NodeBeams
		if n == 2 {
			beams = antenna.NewNodeBeams()
		} else {
			beams = antenna.NewNarrowNodeBeams(n)
		}
		// Bisect the distance where facing SNR crosses 10 dB.
		snrAt := func(d float64) float64 {
			node := channel.Pose{Pos: channel.Vec2{X: 1, Y: 4}}
			ap := channel.Pose{Pos: channel.Vec2{X: 1 + d, Y: 4}, Orientation: math.Pi}
			l := core.NewLink(env, node, ap)
			l.Beams = beams
			return l.Evaluate().SNRWithOTAM
		}
		lo, hi := 1.0, 78.0
		for i := 0; i < 40; i++ {
			mid := (lo + hi) / 2
			if snrAt(mid) > 10 {
				lo = mid
			} else {
				hi = mid
			}
		}
		res.Rows = append(res.Rows, ExtBeamRow{
			Elements:     n,
			PeakGainDBi:  antenna.GainDB(beams.Beam1, 0),
			FoVDeg:       units.Rad2Deg(antenna.FieldOfView(beams, 10, 2048)),
			RangeAt10dBm: (lo + hi) / 2,
		})
	}
	return res
}

// String renders the narrow-beam tradeoff.
func (r ExtNarrowBeamResult) String() string {
	t := &Table{
		Title:   "Extension — narrower beams: range vs field of view (§9.1)",
		Headers: []string{"elements", "peak gain (dBi)", "FoV (deg)", "range to 10 dB (m)"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Elements), f1(row.PeakGainDBi), f1(row.FoVDeg), f1(row.RangeAt10dBm))
	}
	return t.String()
}

// ExtBacksideResult demonstrates the four-array (mirrored) node.
type ExtBacksideResult struct {
	CoverageStandard, CoverageExtended float64
	// BackSNRStandard / BackSNRExtended: link SNR with the node mounted
	// backwards (180°).
	BackSNRStandard, BackSNRExtended float64
}

// ExtBackside measures coverage and a backwards-mounted link for the
// standard vs extended node.
func ExtBackside(seed uint64) ExtBacksideResult {
	rng := stats.NewRNG(seed)
	env := channel.NewEnvironment(channel.NewRoom(10, 6, rng), units.ISM24GHzCenter)
	node := channel.Pose{Pos: channel.Vec2{X: 2, Y: 3}, Orientation: math.Pi} // facing away!
	ap := channel.Pose{Pos: channel.Vec2{X: 7, Y: 3}, Orientation: math.Pi}
	std := core.NewLink(env, node, ap)
	ext := core.NewLink(env, node, ap)
	ext.Beams = antenna.NewExtendedNodeBeams()
	return ExtBacksideResult{
		CoverageStandard: antenna.CoverageFraction(antenna.NewNodeBeams(), 10, 4096),
		CoverageExtended: antenna.CoverageFraction(antenna.NewExtendedNodeBeams(), 10, 4096),
		BackSNRStandard:  std.Evaluate().SNRWithOTAM,
		BackSNRExtended:  ext.Evaluate().SNRWithOTAM,
	}
}

// String renders the backside extension result.
func (r ExtBacksideResult) String() string {
	return fmt.Sprintf(`Extension — back-side patch arrays (§9.1)
coverage within 10 dB of peak: standard %.0f%%  extended %.0f%%
backwards-mounted link SNR:    standard %.1f dB  extended %.1f dB
`, 100*r.CoverageStandard, 100*r.CoverageExtended,
		r.BackSNRStandard, r.BackSNRExtended)
}

// Ext60GHzResult scales mmX into the 60 GHz unlicensed band.
type Ext60GHzResult struct {
	// Capacity100Mbps: how many 100 Mbps FDM channels each band holds.
	Capacity24, Capacity60 int
	// SNRAt5m24 / SNRAt5m60: facing link SNR at 5 m in each band (the
	// shorter 60 GHz wavelength costs ~8 dB of FSPL at equal distance).
	SNRAt5m24, SNRAt5m60 float64
}

// Ext60GHz contrasts the 24 GHz prototype band with the 7 GHz-wide 60 GHz
// band §7(a) points to: vastly more FDM capacity, shorter reach.
func Ext60GHz(seed uint64) Ext60GHzResult {
	capacityOf := func(band mac.Band) int {
		al := mac.NewAllocator(band)
		n := 0
		for {
			if _, err := al.Allocate(uint32(n+1), 100e6); err != nil {
				return n
			}
			n++
		}
	}
	snrAt := func(freq float64) float64 {
		rng := stats.NewRNG(seed)
		env := channel.NewEnvironment(channel.NewRoom(10, 6, rng), freq)
		node := channel.Pose{Pos: channel.Vec2{X: 1, Y: 3}}
		ap := channel.Pose{Pos: channel.Vec2{X: 6, Y: 3}, Orientation: math.Pi}
		return core.NewLink(env, node, ap).Evaluate().SNRWithOTAM
	}
	return Ext60GHzResult{
		Capacity24: capacityOf(mac.ISM24GHz()),
		Capacity60: capacityOf(mac.Unlicensed60GHz()),
		SNRAt5m24:  snrAt(units.ISM24GHzCenter),
		SNRAt5m60:  snrAt((units.Band60GHzLow + units.Band60GHzHigh) / 2),
	}
}

// String renders the 60 GHz scaling result.
func (r Ext60GHzResult) String() string {
	return fmt.Sprintf(`Extension — scaling to the 60 GHz band (§7a)
100 Mbps FDM channels: 24 GHz ISM %d   60 GHz %d
facing SNR at 5 m:     24 GHz %.1f dB  60 GHz %.1f dB
`, r.Capacity24, r.Capacity60, r.SNRAt5m24, r.SNRAt5m60)
}

// ExtScaleResult is the "billions of things" scaling story: the same
// dense deployment in the prototype's 24 GHz ISM band versus the 7 GHz of
// spectrum at 60 GHz.
type ExtScaleResult struct {
	Nodes int
	// SDMNodes24/60: how many of the nodes had to share spectrum
	// spatially in each band.
	SDMNodes24, SDMNodes60 int
	// MeanSINR24/60: network mean SINR in each band.
	MeanSINR24, MeanSINR60 float64
	// Usable24/60: fraction of nodes at SINR ≥ 10 dB.
	Usable24, Usable60 float64
}

// ExtScale deploys a dense hall of 4K cameras (40 Mbps each) in both
// bands: at 24 GHz the 250 MHz band holds four FDM channels and crams
// everyone else into SDM, so the network goes interference-limited; at
// 60 GHz every node gets its own channel, and the same PCB aperture
// carries an 8-element array whose extra gain pays back the ~8 dB of
// additional path loss.
func ExtScale(seed uint64, nodes int) ExtScaleResult {
	run := func(freq float64, band mac.Band, beams antenna.NodeBeams) (sdm int, mean float64, usable float64) {
		rng := stats.NewRNG(seed)
		env := channel.NewEnvironment(channel.NewRoom(12, 8, rng), freq)
		ap := channel.Pose{Pos: channel.Vec2{X: 0.3, Y: 4}, Orientation: 0}
		nw := simnet.NewWithBand(env, ap, seed+5, band)
		nw.NodeBeams = beams
		for id := 1; id <= nodes; id++ {
			pos := channel.Vec2{X: rng.Uniform(1, 11), Y: rng.Uniform(0.5, 7.5)}
			orient := ap.Pos.Sub(pos).Angle() + rng.Uniform(-math.Pi/4, math.Pi/4)
			n, err := nw.Join(uint32(id), channel.Pose{Pos: pos, Orientation: orient}, 50e6, simnet.HDCamera(40))
			if err != nil {
				continue
			}
			if n.Shared {
				sdm++
			}
		}
		var sum float64
		for _, r := range nw.EvaluateSINR() {
			sum += r.SINRdB
			if r.SINRdB >= 10 {
				usable++
			}
		}
		if len(nw.Nodes) > 0 {
			mean = sum / float64(len(nw.Nodes))
			usable /= float64(len(nw.Nodes))
		}
		return sdm, mean, usable
	}
	var res ExtScaleResult
	res.Nodes = nodes
	res.SDMNodes24, res.MeanSINR24, res.Usable24 = run(
		units.ISM24GHzCenter, mac.ISM24GHz(), antenna.NewNodeBeams())
	// At 60 GHz the wavelength is 2.5x shorter, so the same PCB aperture
	// carries a larger array: use the 8-element narrow-beam pair (+6 dB).
	res.SDMNodes60, res.MeanSINR60, res.Usable60 = run(
		(units.Band60GHzLow+units.Band60GHzHigh)/2, mac.Unlicensed60GHz(),
		antenna.NewNarrowNodeBeams(8))
	return res
}

// String renders the scaling comparison.
func (r ExtScaleResult) String() string {
	return fmt.Sprintf(`Extension — dense deployment: 24 GHz ISM vs 60 GHz (§7a)
nodes offered:     %d cameras at 40 Mbps
24 GHz ISM band:   %d forced into SDM, mean SINR %.1f dB, %.0f%% usable
60 GHz band:       %d forced into SDM, mean SINR %.1f dB, %.0f%% usable
`, r.Nodes,
		r.SDMNodes24, r.MeanSINR24, 100*r.Usable24,
		r.SDMNodes60, r.MeanSINR60, 100*r.Usable60)
}
