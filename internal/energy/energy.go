// Package energy rolls the rf component catalog up into the node's power,
// cost and energy-efficiency figures the paper headlines (§9.1: 1.1 W
// node, 11 nJ/bit at 100 Mbps, $110 BOM) and prices a beam-searching
// radio's daily re-alignment energy, which OTAM avoids (§6).
package energy

import (
	"math"

	"mmx/internal/rf"
	"mmx/internal/units"
)

// Budget is a device-level power/cost summary.
type Budget struct {
	Name    string
	PowerW  float64
	CostUSD float64
}

// NodeBudget returns the mmX node's totals from the component catalog.
func NodeBudget() Budget {
	c := rf.NodeTXChain()
	return Budget{Name: c.Name, PowerW: c.PowerW(), CostUSD: c.CostUSD()}
}

// EnergyPerBitNJ returns a budget's energy efficiency in nJ/bit at the
// given sustained bitrate.
func (b Budget) EnergyPerBitNJ(bps float64) float64 {
	return units.NanojoulesPerBit(b.PowerW, bps)
}

// SearchEnergyPerDay returns the joules per day a beam-searching radio
// spends re-aligning when the environment changes every coherenceS
// seconds and each search takes searchLatency seconds at searchPowerW.
// OTAM's corresponding figure is zero — the headline energy argument.
func SearchEnergyPerDay(searchLatency, searchPowerW, coherenceS float64) float64 {
	if coherenceS <= 0 {
		return math.Inf(1)
	}
	searchesPerDay := 86400 / coherenceS
	return searchesPerDay * searchLatency * searchPowerW
}
