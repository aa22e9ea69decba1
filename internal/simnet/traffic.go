// Package simnet simulates a complete mmX network: one access point, many
// IoT nodes joining over the initialization protocol, FDM channel
// allocation with SDM (TMA) fallback, per-node SINR including
// adjacent-channel and co-channel interference, walking blockers, and a
// small discrete-event engine that drives per-node traffic models and
// accounts delivered bits — the machinery behind Fig. 13 and the
// domain-scenario examples.
package simnet

import "mmx/internal/stats"

// TrafficModel generates a node's offered load.
type TrafficModel interface {
	// Next returns the time until the node's next frame and that frame's
	// payload size in bytes.
	Next(rng *stats.RNG) (delay float64, payloadBytes int)
}

// CBR is constant-bitrate traffic (an HD camera streaming 8–10 Mbps, the
// paper's canonical workload).
type CBR struct {
	// RateBps is the application bitrate.
	RateBps float64
	// FrameBytes is the fixed frame size.
	FrameBytes int
}

// Next implements TrafficModel with a fixed inter-frame gap.
func (c CBR) Next(rng *stats.RNG) (float64, int) {
	if c.RateBps <= 0 || c.FrameBytes <= 0 {
		return 1, 0
	}
	return float64(c.FrameBytes*8) / c.RateBps, c.FrameBytes
}

// Poisson is bursty telemetry: exponentially distributed gaps.
type Poisson struct {
	// MeanIntervalS is the average gap between frames.
	MeanIntervalS float64
	// FrameBytes is the fixed frame size.
	FrameBytes int
}

// Next implements TrafficModel.
func (p Poisson) Next(rng *stats.RNG) (float64, int) {
	if p.MeanIntervalS <= 0 || p.FrameBytes <= 0 {
		return 1, 0
	}
	return rng.Exp(p.MeanIntervalS), p.FrameBytes
}

// HDCamera returns the paper's reference workload: an HD video stream at
// the given Mbps (footnote 1: "HD video streaming requires 8-10 Mbps").
func HDCamera(mbps float64) CBR {
	return CBR{RateBps: mbps * 1e6, FrameBytes: 1500}
}

// Telemetry returns a low-rate sensor workload.
func Telemetry(meanIntervalS float64) Poisson {
	return Poisson{MeanIntervalS: meanIntervalS, FrameBytes: 64}
}
