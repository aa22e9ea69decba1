// Package comparison encodes Table 1 of the paper: mmX against other
// mmWave platforms (MiRa, OpenMili/Pasternack) and against WiFi 802.11n
// and Bluetooth. The mmX row is derived from this repository's component
// models; the other rows carry the specs the paper cites, so the table
// regenerates with the same ordering and ratios.
package comparison

import (
	"fmt"
	"strings"

	"mmx/internal/energy"
	"mmx/internal/rf"
	"mmx/internal/units"
)

// Platform is one row of Table 1.
type Platform struct {
	Name             string
	CarrierHz        float64
	CostUSD          float64
	PowerW           float64
	TxPowerDBm       float64
	BandwidthHz      float64
	BitrateBps       float64
	RangeM           float64
	BitrateCondition string // e.g. "at 18m"
}

// EnergyPerBitNJ returns the platform's energy efficiency in nJ/bit.
func (p Platform) EnergyPerBitNJ() float64 {
	return units.NanojoulesPerBit(p.PowerW, p.BitrateBps)
}

// MMX builds the mmX row from the simulator's own component models: power
// and cost from the rf catalog, bitrate from the SPDT toggle limit, range
// from the §9.4 measurement.
func MMX() Platform {
	node := energy.NodeBudget()
	sw := rf.NewADRF5020()
	return Platform{
		Name:             "mmX",
		CarrierHz:        24e9,
		CostUSD:          node.CostUSD,
		PowerW:           node.PowerW,
		TxPowerDBm:       10,
		BandwidthHz:      units.ISM24GHzWidth,
		BitrateBps:       sw.MaxBitRate(),
		RangeM:           18,
		BitrateCondition: "at 18m",
	}
}

// Table1 returns all rows in the paper's column order.
func Table1() []Platform {
	return []Platform{
		MMX(),
		{
			Name: "MiRa", CarrierHz: 24e9, CostUSD: 7000, PowerW: 11.6,
			TxPowerDBm: 10, BandwidthHz: 250e6, BitrateBps: 1e9, RangeM: 100,
			BitrateCondition: "at 18m",
		},
		{
			Name: "OpenMili/Pasternack", CarrierHz: 60e9, CostUSD: 8000, PowerW: 5,
			TxPowerDBm: 12, BandwidthHz: 1e9, BitrateBps: 1.3e9, RangeM: 11,
		},
		{
			Name: "WiFi (802.11n)", CarrierHz: 2.4e9, CostUSD: 10, PowerW: 2.1,
			TxPowerDBm: 30, BandwidthHz: 70e6, BitrateBps: 120e6, RangeM: 50,
			BitrateCondition: "at 18m",
		},
		{
			Name: "Bluetooth", CarrierHz: 2.4e9, CostUSD: 10, PowerW: 0.029,
			TxPowerDBm: 5, BandwidthHz: 1e6, BitrateBps: 1e6, RangeM: 10,
		},
	}
}

// Render formats the comparison as the paper's table (rows = metrics,
// columns = platforms).
func Render(ps []Platform) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	w("%-28s", "")
	for _, p := range ps {
		w("| %-22s", p.Name)
	}
	w("\n")
	row := func(label string, f func(Platform) string) {
		w("%-28s", label)
		for _, p := range ps {
			w("| %-22s", f(p))
		}
		w("\n")
	}
	row("Carrier Frequency", func(p Platform) string { return units.FormatHz(p.CarrierHz) })
	row("Cost", func(p Platform) string { return fmt.Sprintf("$%.0f", p.CostUSD) })
	row("Power Consumption", func(p Platform) string { return fmt.Sprintf("%.3g W", p.PowerW) })
	row("Transmission Power", func(p Platform) string { return fmt.Sprintf("%.0f dBm", p.TxPowerDBm) })
	row("Bandwidth", func(p Platform) string { return units.FormatHz(p.BandwidthHz) })
	row("PHY-layer Bitrate", func(p Platform) string {
		s := units.FormatBitrate(p.BitrateBps)
		if p.BitrateCondition != "" {
			s += " (" + p.BitrateCondition + ")"
		}
		return s
	})
	row("Energy efficiency (nJ/bit)", func(p Platform) string { return fmt.Sprintf("%.3g", p.EnergyPerBitNJ()) })
	row("Range", func(p Platform) string { return fmt.Sprintf("%.0f m", p.RangeM) })
	return b.String()
}
