package core

import (
	"math"

	"mmx/internal/mac"
	"mmx/internal/modem"
	"mmx/internal/units"
)

// Rate adaptation (§5.1): the node changes its data rate by changing the
// SPDT switching speed, and the AP sizes the matched-filter bandwidth to
// the symbol rate. Slowing down shrinks the noise bandwidth, so a link
// that cannot sustain 100 Mbps still closes at a lower rate — the mmWave
// analogue of WiFi's MCS ladder, with no constellation changes needed.

// RateLadder is the set of symbol rates (= bit rates) a node may use,
// fastest first. The top step is the ADRF5020's 100 MHz toggle ceiling.
var RateLadder = rateLadder[:]

// rateLadder backs RateLadder; its length sizes RungGains.
var rateLadder = [...]float64{100e6, 50e6, 25e6, 10e6, 5e6, 2e6, 1e6, 500e3, 100e3}

// RateForSNR returns the fastest ladder rate a link with the given SNR
// (measured in cfgBandwidthHz of noise bandwidth) sustains at the target
// BER, or 0 if even the slowest rate cannot close the link. It is the
// ladder walk of AdaptRate factored out so callers that already hold an
// SNR — e.g. the network simulator's per-step SINR reports — can re-adapt
// without re-enumerating propagation paths.
func RateForSNR(snrDB, cfgBandwidthHz, targetBER float64) float64 {
	required := modem.RequiredSNRForOOKBER(targetBER)
	for _, rate := range RateLadder {
		if snrDB+rungGainDB(cfgBandwidthHz, rate) >= required {
			return rate
		}
	}
	return 0
}

// rungGainDB is what a rate's narrower noise bandwidth adds to the SNR
// of a link measured in bw. The conversion rounds the gain, so no caller
// fuses it into its sum and a stored gain rates bit-identically.
func rungGainDB(bw, rate float64) float64 {
	return float64(units.DB(bw / mac.BandwidthForRate(rate)))
}

// RungGains holds rungGainDB of one bandwidth for each RateLadder rung,
// for a caller that rates many links at a fixed bandwidth to compute the
// logarithms once.
type RungGains [len(rateLadder)]float64

// NewRungGains returns bw's rung gains.
func NewRungGains(bw float64) RungGains {
	var g RungGains
	for i, rate := range RateLadder {
		g[i] = rungGainDB(bw, rate)
	}
	return g
}

// Rate is RateForSNR at the gains' bandwidth, bit for bit.
func (g *RungGains) Rate(snrDB, targetBER float64) float64 {
	required := modem.RequiredSNRForOOKBER(targetBER)
	for i, gain := range g {
		if snrDB+gain >= required {
			return RateLadder[i]
		}
	}
	return 0
}

// AdaptRate returns the fastest ladder rate whose SNR (at that rate's
// bandwidth) meets the target BER, or 0 if even the slowest rate cannot
// close the link.
func (l *Link) AdaptRate(targetBER float64) float64 {
	ev := l.Evaluate()
	return RateForSNR(ev.SNRWithOTAM, l.Cfg.BandwidthHz, targetBER)
}

// AchievableRate returns the continuous-valued rate (bps, capped at the
// switch ceiling) at which the link exactly meets the target BER —
// useful for plotting rate-vs-distance curves without ladder
// quantization.
func (l *Link) AchievableRate(targetBER float64) float64 {
	ev := l.Evaluate()
	required := modem.RequiredSNRForOOKBER(targetBER)
	// SNR(rate) = SNR(cfgBW) + 10log10(cfgBW / (1.25·rate)) ≥ required
	// ⇒ rate ≤ cfgBW/1.25 · 10^((SNR(cfgBW) − required)/10).
	margin := ev.SNRWithOTAM - required
	rate := l.Cfg.BandwidthHz / 1.25 * math.Pow(10, margin/10)
	if ceiling := RateLadder[0]; rate > ceiling {
		return ceiling
	}
	// Below the allocator's 1 MHz channel floor the bandwidth stops
	// shrinking, so slowing down buys nothing more: if the link cannot
	// close at the floor bandwidth (rate 0.8 Mbps), it cannot close at
	// all.
	if rate < 1e6/1.25 {
		return 0
	}
	return rate
}
