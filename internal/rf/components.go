// Package rf models the analog components of the mmX node and access
// point: the HMC533 VCO (with the Fig. 7 tuning curve), the ADRF5020 SPDT
// switch whose toggle rate caps the data rate at 100 Mbps, the AP's
// LNA / microstrip filter / sub-harmonic mixer receive chain, and cascade
// (Friis) noise-figure analysis. Every component also carries the power
// draw and unit cost used for the Table 1 and BOM roll-ups, replacing the
// paper's physical prototype with a parameterized model.
package rf

import "math"

// Component describes one stage of an RF chain.
type Component struct {
	// Name identifies the part (e.g. "HMC751 LNA").
	Name string
	// GainDB is the stage's power gain (negative for lossy stages).
	GainDB float64
	// NoiseFigureDB is the stage's noise figure. For passive lossy stages
	// it equals the insertion loss.
	NoiseFigureDB float64
	// PowerW is the DC power the stage consumes.
	PowerW float64
	// CostUSD is the unit cost.
	CostUSD float64
}

// Chain is an ordered cascade of components (input first).
type Chain struct {
	Name   string
	Stages []Component
}

// NoiseFigureDB returns the cascade noise figure via the Friis formula:
// F = F1 + (F2-1)/G1 + (F3-1)/(G1·G2) + …
func (c *Chain) NoiseFigureDB() float64 {
	if len(c.Stages) == 0 {
		return 0
	}
	f := math.Pow(10, c.Stages[0].NoiseFigureDB/10)
	gProd := math.Pow(10, c.Stages[0].GainDB/10)
	for _, s := range c.Stages[1:] {
		fs := math.Pow(10, s.NoiseFigureDB/10)
		f += (fs - 1) / gProd
		gProd *= math.Pow(10, s.GainDB/10)
	}
	return 10 * math.Log10(f)
}

// PowerW returns the total DC power of the chain.
func (c *Chain) PowerW() float64 {
	p := 0.0
	for _, s := range c.Stages {
		p += s.PowerW
	}
	return p
}

// CostUSD returns the total component cost of the chain.
func (c *Chain) CostUSD() float64 {
	v := 0.0
	for _, s := range c.Stages {
		v += s.CostUSD
	}
	return v
}

// Catalog entries: parameters from the paper (§1, §8) and the cited
// datasheets. Costs of the conventional-radio parts ($220 PA, $70 mixer,
// $150 phase shifter) are what mmX's architecture avoids.
var (
	// PartVCO is the HMC533 MMIC VCO: 12 dBm output, covers the 24 GHz
	// ISM band, the node's only signal source.
	PartVCO = Component{Name: "HMC533 VCO", GainDB: 0, NoiseFigureDB: 0, PowerW: 0.74, CostUSD: 42}

	// PartSPDT is the ADRF5020 switch: <2 dB insertion loss, 65 dB
	// isolation, 100 MHz max toggle rate. Reflective losses only; it
	// draws almost no DC power.
	PartSPDT = Component{Name: "ADRF5020 SPDT", GainDB: -2, NoiseFigureDB: 2, PowerW: 0.01, CostUSD: 28}

	// PartController is the node's digital controller (SPI data source;
	// a Raspberry-Pi-class SoC budgeted at the radio's share of power).
	PartController = Component{Name: "digital controller", GainDB: 0, NoiseFigureDB: 0, PowerW: 0.35, CostUSD: 15}

	// PartNodeAntennas is the pair of 2-element patch arrays printed on
	// the node PCB (passive).
	PartNodeAntennas = Component{Name: "patch arrays + PCB", GainDB: 0, NoiseFigureDB: 0, PowerW: 0, CostUSD: 25}

	// PartLNA is the HMC751: ≈25 dB gain, 2 dB noise figure at 24 GHz.
	PartLNA = Component{Name: "HMC751 LNA", GainDB: 25, NoiseFigureDB: 2, PowerW: 0.45, CostUSD: 90}

	// PartMicrostripFilter is the coupled-line bandpass filter etched on
	// the AP PCB: centered at 24 GHz with 5 dB passband insertion loss.
	PartMicrostripFilter = Component{Name: "microstrip BPF", GainDB: -5, NoiseFigureDB: 5, PowerW: 0, CostUSD: 0}

	// PartSubharmonicMixer is the HMC264LC3B: doubles a 10 GHz LO to
	// down-convert 24 GHz to 4 GHz with ≈10 dB conversion loss.
	PartSubharmonicMixer = Component{Name: "HMC264LC3B mixer", GainDB: -10, NoiseFigureDB: 10, PowerW: 0.12, CostUSD: 70}

	// PartPLL is the ADF5356 LO generator at 10 GHz.
	PartPLL = Component{Name: "ADF5356 PLL", GainDB: 0, NoiseFigureDB: 0, PowerW: 0.6, CostUSD: 55}

	// PartBaseband is the baseband processor / digitizer (USRP N210 in
	// the prototype; an integrated ADC+FPGA in production).
	PartBaseband = Component{Name: "baseband processor", GainDB: 30, NoiseFigureDB: 8, PowerW: 4.0, CostUSD: 400}

	// Parts the mmX node deliberately avoids (for cost comparisons).
	PartPA          = Component{Name: "24 GHz power amplifier", GainDB: 20, NoiseFigureDB: 6, PowerW: 2.5, CostUSD: 220}
	PartIQMixer     = Component{Name: "HMC8191 I/Q mixer", GainDB: -9, NoiseFigureDB: 9, PowerW: 1.0, CostUSD: 70}
	PartPhaseShift  = Component{Name: "analog phase shifter", GainDB: -4, NoiseFigureDB: 4, PowerW: 0.05, CostUSD: 150}
	PartArrayLNA    = Component{Name: "per-element LNA", GainDB: 20, NoiseFigureDB: 2.5, PowerW: 0.15, CostUSD: 80}
	PhasedArraySize = 8 // elements in the conventional radio's array (§6)
)

// NodeTXChain returns the mmX node's entire radio: VCO → SPDT → antennas,
// plus the digital controller. Its totals are the paper's headline node
// numbers (≈1.1 W, ≈$110).
func NodeTXChain() *Chain {
	return &Chain{
		Name:   "mmX node",
		Stages: []Component{PartVCO, PartSPDT, PartNodeAntennas, PartController},
	}
}

// APRXChain returns the AP's front end in signal order:
// LNA → microstrip filter → sub-harmonic mixer, followed by the baseband
// processor. The LNA-first ordering keeps the cascade noise figure low
// (§5.2).
func APRXChain() *Chain {
	return &Chain{
		Name:   "mmX AP",
		Stages: []Component{PartLNA, PartMicrostripFilter, PartSubharmonicMixer, PartBaseband},
	}
}

// APFrontEndNoiseFigureDB is the RF noise figure used for link budgets:
// the cascade NF of the AP receive chain.
func APFrontEndNoiseFigureDB() float64 {
	c := APRXChain()
	return c.NoiseFigureDB()
}

// PhasedArrayRadio returns the conventional mmWave radio mmX argues
// against: a PA, an I/Q mixer, and an 8-element phased array (one LNA and
// one phase shifter per element). Used for the cost/power comparison and
// the beam-searching baseline.
func PhasedArrayRadio() *Chain {
	stages := []Component{PartPA, PartIQMixer, PartPLL}
	for i := 0; i < PhasedArraySize; i++ {
		stages = append(stages, PartArrayLNA, PartPhaseShift)
	}
	return &Chain{Name: "conventional phased-array radio", Stages: stages}
}
