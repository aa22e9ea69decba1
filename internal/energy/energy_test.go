package energy

import (
	"math"
	"testing"
)

func TestNodeBudgetHeadlines(t *testing.T) {
	n := NodeBudget()
	if math.Abs(n.PowerW-1.1) > 0.01 {
		t.Errorf("node power = %.2f W, want 1.1", n.PowerW)
	}
	if math.Abs(n.CostUSD-110) > 0.5 {
		t.Errorf("node cost = $%.0f, want 110", n.CostUSD)
	}
	// 11 nJ/bit at 100 Mbps (§9.1).
	if e := n.EnergyPerBitNJ(100e6); math.Abs(e-11) > 0.2 {
		t.Errorf("energy/bit = %.2f nJ, want 11", e)
	}
}

func TestSearchEnergyPerDay(t *testing.T) {
	// 3.2 ms search at 8 W, environment changing every 10 s:
	// 8640 searches/day × 0.0256 J ≈ 221 J/day that OTAM avoids.
	got := SearchEnergyPerDay(3.2e-3, 8, 10)
	if math.Abs(got-8640*3.2e-3*8) > 1e-6 {
		t.Errorf("search energy = %g", got)
	}
	if !math.IsInf(SearchEnergyPerDay(1, 1, 0), 1) {
		t.Error("zero coherence should be infinite")
	}
}
