package experiments

import (
	"fmt"
	"math"

	"mmx/internal/channel"
	"mmx/internal/comparison"
	"mmx/internal/energy"
	"mmx/internal/rf"
	"mmx/internal/simnet"
	"mmx/internal/stats"
	"mmx/internal/units"
)

// Fig13Point is the SNR statistic at one network size.
type Fig13Point struct {
	Nodes      int
	MeanSINRdB float64
	MinSINRdB  float64
	MaxSINRdB  float64
}

// Fig13Result is the multi-node experiment of §9.5.
type Fig13Result struct {
	Points []Fig13Point
	// MeanAt20 anchors the paper's ">29 dB with 20 simultaneous nodes".
	MeanAt20 float64
}

// Fig13 runs the §9.5 protocol: for each network size, many trials with
// nodes at random lab positions and orientations transmitting
// simultaneously (FDM with SDM fallback), measuring each node's SINR at
// the AP. Every (size, trial) pair builds its own environment and network
// from its own TrialRNG stream, so the whole grid fans out in parallel.
func Fig13(seed uint64, sizes []int, trials int) Fig13Result {
	type job struct{ sizeIdx, nodes int }
	var jobs []job
	for i, n := range sizes {
		for t := 0; t < trials; t++ {
			jobs = append(jobs, job{sizeIdx: i, nodes: n})
		}
	}
	sinrs := RunTrials(seed, len(jobs), func(i int, rng *stats.RNG) []float64 {
		n := jobs[i].nodes
		env := channel.NewEnvironment(channel.NewLabRoom(rng), units.ISM24GHzCenter)
		ap := channel.Pose{Pos: channel.Vec2{X: 0.3, Y: 2}, Orientation: 0}
		nw := simnet.New(env, ap, rng.Uint64())
		for id := 1; id <= n; id++ {
			pos := channel.Vec2{X: rng.Uniform(1, 5.5), Y: rng.Uniform(0.5, 3.5)}
			orient := ap.Pos.Sub(pos).Angle() + rng.Uniform(-math.Pi/3, math.Pi/3)
			// Each node occupies a 25 MHz sub-band demand-wise
			// (≈ the paper's per-node capture bandwidth) until FDM
			// runs out, then shares via SDM.
			if _, err := nw.Join(uint32(id), channel.Pose{Pos: pos, Orientation: orient}, 20e6, simnet.HDCamera(8)); err != nil {
				continue
			}
		}
		var out []float64
		for _, r := range nw.EvaluateSINR() {
			out = append(out, r.SINRdB)
		}
		return out
	})
	var res Fig13Result
	for i, n := range sizes {
		var all []float64
		for j, jb := range jobs {
			if jb.sizeIdx == i {
				all = append(all, sinrs[j]...)
			}
		}
		p := Fig13Point{
			Nodes:      n,
			MeanSINRdB: stats.Mean(all),
			MinSINRdB:  stats.Min(all),
			MaxSINRdB:  stats.Max(all),
		}
		res.Points = append(res.Points, p)
		if n == 20 {
			res.MeanAt20 = p.MeanSINRdB
		}
	}
	return res
}

func (r Fig13Result) table() *Table {
	t := &Table{
		Title:   "Fig. 13 — SNR vs number of simultaneously transmitting nodes",
		Headers: []string{"nodes", "mean SINR (dB)", "min (dB)", "max (dB)"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%d", p.Nodes), f1(p.MeanSINRdB), f1(p.MinSINRdB), f1(p.MaxSINRdB))
	}
	return t
}

// CSV exports the Fig. 13 series.
func (r Fig13Result) CSV() string { return r.table().CSV() }

// String renders the Fig. 13 series.
func (r Fig13Result) String() string {
	return r.table().String() + fmt.Sprintf("mean at 20 nodes: %.1f dB (paper: >29 dB)\n", r.MeanAt20)
}

// Table1Result wraps the platform comparison.
type Table1Result struct {
	Platforms []comparison.Platform
}

// Table1 regenerates the paper's Table 1: the mmX row re-derives its
// numbers from the component models; the others carry the cited specs.
func Table1() Table1Result {
	return Table1Result{Platforms: comparison.Table1()}
}

// String renders Table 1.
func (r Table1Result) String() string {
	return "Table 1 — platform comparison\n" + comparison.Render(r.Platforms)
}

// MicroResult carries the §9.1 microbenchmarks.
type MicroResult struct {
	// MaxBitRateBps is the switch-limited ceiling (100 Mbps).
	MaxBitRateBps float64
	// NodePowerW and NodeCostUSD are the BOM roll-ups.
	NodePowerW, NodeCostUSD float64
	// EnergyPerBitNJ at the max rate (11 nJ/bit).
	EnergyPerBitNJ float64
	// VCOCoversISM confirms full-band tuning.
	VCOCoversISM bool
	// APNoiseFigureDB is the receive cascade NF.
	APNoiseFigureDB float64
}

// Micro computes the transmitter-performance microbenchmarks.
func Micro() MicroResult {
	node := energy.NodeBudget()
	sw := rf.NewADRF5020()
	return MicroResult{
		MaxBitRateBps:   sw.MaxBitRate(),
		NodePowerW:      node.PowerW,
		NodeCostUSD:     node.CostUSD,
		EnergyPerBitNJ:  node.EnergyPerBitNJ(sw.MaxBitRate()),
		VCOCoversISM:    rf.NewHMC533().CoversISMBand(),
		APNoiseFigureDB: rf.APFrontEndNoiseFigureDB(),
	}
}

// String renders the microbenchmark summary.
func (r MicroResult) String() string {
	return fmt.Sprintf(`§9.1 microbenchmarks
max data rate:        %s (paper: 100 Mbps, switch-limited)
node power:           %.2f W (paper: 1.1 W)
node cost:            $%.0f (paper: $110)
energy efficiency:    %.1f nJ/bit (paper: 11 nJ/bit)
VCO covers ISM band:  %v
AP cascade NF:        %.2f dB
`, units.FormatBitrate(r.MaxBitRateBps), r.NodePowerW, r.NodeCostUSD,
		r.EnergyPerBitNJ, r.VCOCoversISM, r.APNoiseFigureDB)
}
