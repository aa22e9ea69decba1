package core

import (
	"math"
	"testing"
	"testing/quick"

	"mmx/internal/mac"
	"mmx/internal/modem"
	"mmx/internal/units"
)

func TestAdaptRateNearAndFar(t *testing.T) {
	// Close in: the full 100 Mbps closes easily.
	near := facingLink(20, 21, 6, 2)
	if got := near.AdaptRate(1e-6); got != 100e6 {
		t.Errorf("near rate = %g, want 100 Mbps", got)
	}
	// At the edge of range the ladder steps down but stays nonzero.
	far := facingLink(20, 40, 6, 35)
	rate := far.AdaptRate(1e-6)
	if rate <= 0 || rate >= 100e6 {
		t.Errorf("far rate = %g, want a reduced step", rate)
	}
	// The chosen step really meets the target.
	ev := far.Evaluate()
	snr := ev.SNRWithOTAM + units.DB(far.Cfg.BandwidthHz/mac.BandwidthForRate(rate))
	if modem.OOKBER(snr) > 1e-6 {
		t.Errorf("chosen rate misses target: BER %g", modem.OOKBER(snr))
	}
}

func TestAdaptRateHopeless(t *testing.T) {
	// A link so long even the slowest rate fails.
	l := facingLink(21, 300, 6, 295)
	if got := l.AdaptRate(1e-6); got != 0 {
		t.Errorf("hopeless link rate = %g, want 0", got)
	}
	if got := l.AchievableRate(1e-6); got != 0 {
		t.Errorf("hopeless achievable = %g, want 0", got)
	}
}

func TestAchievableRateMonotoneInDistance(t *testing.T) {
	// On the direct path alone the achievable rate falls monotonically
	// with distance (multipath adds non-monotone ripples on top, which
	// is physics, not a bug).
	f := func(a uint8) bool {
		d1 := 5 + float64(a%40)
		d2 := d1 + 5
		l1 := facingLink(22, 60, 6, d1)
		l1.Env.MaxReflections = 0
		l2 := facingLink(22, 60, 6, d2)
		l2.Env.MaxReflections = 0
		return l1.AchievableRate(1e-6) >= l2.AchievableRate(1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAchievableVsLadderConsistent(t *testing.T) {
	// The ladder pick is always ≤ the continuous achievable rate, and
	// never more than one step below it.
	for _, d := range []float64{3, 10, 20, 30, 40} {
		l := facingLink(23, 50, 6, d)
		cont := l.AchievableRate(1e-6)
		step := l.AdaptRate(1e-6)
		if step > cont+1 {
			t.Errorf("d=%g: ladder %g exceeds achievable %g", d, step, cont)
		}
		if cont > 0 && step == 0 && cont >= RateLadder[len(RateLadder)-1] {
			t.Errorf("d=%g: ladder gave up despite achievable %g", d, cont)
		}
	}
}

func TestAchievableRateCeiling(t *testing.T) {
	l := facingLink(24, 10, 6, 1)
	if got := l.AchievableRate(1e-6); got != 100e6 {
		t.Errorf("ceiling = %g", got)
	}
}

func TestRateLadderSorted(t *testing.T) {
	for i := 1; i < len(RateLadder); i++ {
		if RateLadder[i] >= RateLadder[i-1] {
			t.Fatal("RateLadder must be strictly decreasing")
		}
	}
	if RateLadder[0] != 100e6 {
		t.Error("top step must be the switch ceiling")
	}
	if math.IsNaN(RateLadder[len(RateLadder)-1]) {
		t.Error("ladder corrupt")
	}
}

// TestRungGainsRateMatchesRateForSNR holds RungGains.Rate to RateForSNR,
// bit for bit: over SNRs from deep outage to the top rung, at several
// bandwidths, two target BERs and the edges — a zero, negative, infinite
// or NaN SNR or bandwidth.
func TestRungGainsRateMatchesRateForSNR(t *testing.T) {
	bws := []float64{0, -1e6, math.Inf(1), math.NaN(), 1e6, 1.25e6, 2.5e6, 125e6}
	for k := 0; k < 40; k++ {
		bws = append(bws, 1e6*(1+0.37*float64(k)))
	}
	snrs := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0}
	for k := 0; k < 120; k++ {
		snrs = append(snrs, -40+0.577*float64(k))
	}
	for _, bw := range bws {
		g := NewRungGains(bw)
		if allocs := testing.AllocsPerRun(10, func() { g = NewRungGains(bw); g.Rate(3, 1e-6) }); allocs != 0 {
			t.Errorf("NewRungGains(%g) and Rate allocate %.0f times, want 0", bw, allocs)
		}
		for _, ber := range []float64{1e-6, 1e-3} {
			for _, snr := range snrs {
				if got, want := g.Rate(snr, ber), RateForSNR(snr, bw, ber); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("NewRungGains(%g).Rate(%g, %g) = %g, RateForSNR %g", bw, snr, ber, got, want)
				}
			}
		}
	}
}
