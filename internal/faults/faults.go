// Package faults models the failure scenarios that dominate real IoT
// deployments: the WiFi/Bluetooth control side channel (§4, §7a) drops,
// duplicates, delays and truncates frames; nodes crash mid-handshake and
// reboot later; the AP itself restarts and loses its volatile spectrum
// books. Everything is seeded and deterministic, so a run under a given
// (seed, Plan) reproduces bit-for-bit — failure injection is part of the
// experiment, not noise on top of it.
package faults

import (
	"math"
	"sort"

	"mmx/internal/stats"
)

// Delivery is one copy of a frame that made it through the side channel.
type Delivery struct {
	// Frame is the delivered payload; truncated copies are cut short.
	Frame []byte
	// DelayS is the extra propagation delay this copy suffered.
	DelayS float64
}

// SideChannel is the lossy low-rate control link between nodes and the
// AP. Each Transmit passes one frame through the channel and returns the
// zero, one or two copies that arrive. A nil *SideChannel is a perfect
// channel: exactly one copy, zero delay — so callers never need to
// special-case the reliable configuration.
type SideChannel struct {
	// DropProb is the probability a frame vanishes entirely.
	DropProb float64
	// DupProb is the probability a surviving frame is delivered twice
	// (the retransmit-ambiguity case idempotent handling exists for).
	DupProb float64
	// TruncProb is the per-copy probability of truncation to a random
	// prefix (a frame cut by interference mid-air).
	TruncProb float64
	// DelayProb and DelayMeanS add exponential extra latency per copy.
	DelayProb  float64
	DelayMeanS float64

	// Drops, Dups and Truncs count what the channel did, for run
	// accounting.
	Drops, Dups, Truncs int

	rng *stats.RNG
}

// NewSideChannel returns a channel seeded for deterministic loss
// patterns. All probabilities start at zero; set the fields directly.
func NewSideChannel(seed uint64) *SideChannel {
	return &SideChannel{rng: stats.NewRNG(seed)}
}

// Lossy is a convenience constructor for the common drop/duplicate/
// truncate configuration.
func Lossy(seed uint64, drop, dup, trunc float64) *SideChannel {
	sc := NewSideChannel(seed)
	sc.DropProb, sc.DupProb, sc.TruncProb = drop, dup, trunc
	return sc
}

// Transmit passes one frame through the channel. The draw order is
// fixed (drop, duplicate, then per-copy truncate and delay) so the
// consumed random stream — and therefore every downstream outcome — is
// a pure function of the channel's seed and call sequence.
func (sc *SideChannel) Transmit(frame []byte) []Delivery {
	if sc == nil {
		return []Delivery{{Frame: frame}}
	}
	if sc.rng.Float64() < sc.DropProb {
		sc.Drops++
		return nil
	}
	copies := 1
	if sc.rng.Float64() < sc.DupProb {
		sc.Dups++
		copies = 2
	}
	out := make([]Delivery, 0, copies)
	for c := 0; c < copies; c++ {
		d := Delivery{Frame: frame}
		if sc.TruncProb > 0 && sc.rng.Float64() < sc.TruncProb && len(frame) > 0 {
			sc.Truncs++
			d.Frame = append([]byte(nil), frame[:sc.rng.Intn(len(frame))]...)
		}
		if sc.DelayProb > 0 && sc.rng.Float64() < sc.DelayProb {
			d.DelayS = sc.rng.Exp(sc.DelayMeanS)
		}
		out = append(out, d)
	}
	return out
}

// Backoff is the node-side retry policy: capped exponential growth with
// seeded jitter so colliding retransmissions desynchronize without
// breaking reproducibility.
type Backoff struct {
	// BaseS is the delay after the first failed attempt.
	BaseS float64
	// MaxS caps the exponential growth.
	MaxS float64
	// Factor multiplies the delay per attempt (2 = classic doubling).
	Factor float64
	// Jitter spreads each delay uniformly within ±Jitter fraction.
	Jitter float64
}

// Delay returns the wait after the given zero-based failed attempt.
func (b Backoff) Delay(attempt int, rng *stats.RNG) float64 {
	d := b.BaseS * math.Pow(b.Factor, float64(attempt))
	if d > b.MaxS {
		d = b.MaxS
	}
	if b.Jitter > 0 && rng != nil {
		d *= 1 + b.Jitter*(2*rng.Float64()-1)
	}
	return d
}

// EventKind tags a scheduled fault.
type EventKind uint8

// Fault kinds.
const (
	// NodeCrash silences a node without a Release: it stops
	// transmitting and stops renewing its lease.
	NodeCrash EventKind = iota + 1
	// NodeReboot brings a crashed node back; it must rejoin through the
	// full lossy handshake.
	NodeReboot
	// APRestart takes the AP down for DownFor seconds; when it returns
	// its volatile spectrum books are empty and nodes re-sync via
	// renew-nack → rejoin. Data-plane transmission continues on
	// last-known assignments throughout.
	APRestart
)

// Event is one scheduled fault.
type Event struct {
	At      float64
	Kind    EventKind
	NodeID  uint32  // NodeCrash, NodeReboot
	DownFor float64 // APRestart outage window
	AP      int     // APRestart target in a multi-AP network (0 = first AP)
}

// Plan is a deterministic schedule of in-run faults. Build it with the
// chainable helpers and hand it to the simulator before Run.
type Plan struct {
	Events []Event
}

// NewPlan returns an empty fault plan.
func NewPlan() *Plan { return &Plan{} }

// Crash schedules node nodeID to die silently at time at.
func (p *Plan) Crash(at float64, nodeID uint32) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: NodeCrash, NodeID: nodeID})
	return p
}

// Reboot schedules a crashed node to power back up at time at.
func (p *Plan) Reboot(at float64, nodeID uint32) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: NodeReboot, NodeID: nodeID})
	return p
}

// RestartAPAt schedules an outage of downFor seconds for the AP at
// index ap (as returned by AddAP; the construction-time AP is 0).
func (p *Plan) RestartAPAt(at, downFor float64, ap int) *Plan {
	p.Events = append(p.Events, Event{At: at, Kind: APRestart, DownFor: downFor, AP: ap})
	return p
}

// Sorted returns the events in execution order (stable on ties, so two
// faults at the same instant fire in insertion order).
func (p *Plan) Sorted() []Event {
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
