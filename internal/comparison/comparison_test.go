package comparison

import (
	"math"
	"strings"
	"testing"
)

func TestMMXRowFromModels(t *testing.T) {
	m := MMX()
	if math.Abs(m.PowerW-1.1) > 0.01 {
		t.Errorf("power = %g", m.PowerW)
	}
	if math.Abs(m.CostUSD-110) > 0.5 {
		t.Errorf("cost = %g", m.CostUSD)
	}
	if m.BitrateBps != 100e6 {
		t.Errorf("bitrate = %g", m.BitrateBps)
	}
	if m.RangeM != 18 {
		t.Errorf("range = %g", m.RangeM)
	}
	if e := m.EnergyPerBitNJ(); math.Abs(e-11) > 0.2 {
		t.Errorf("energy/bit = %g nJ, want 11", e)
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "mmX" {
		t.Error("mmX should lead the table")
	}
	byName := map[string]Platform{}
	for _, p := range rows {
		byName[p.Name] = p
	}
	m := rows[0]
	// Ordering claims the paper makes:
	mira := byName["MiRa"]
	wifi := byName["WiFi (802.11n)"]
	bt := byName["Bluetooth"]
	openm := byName["OpenMili/Pasternack"]
	if !(m.CostUSD < mira.CostUSD/10 && m.CostUSD < openm.CostUSD/10) {
		t.Error("mmX should be >10x cheaper than mmWave platforms")
	}
	if !(m.PowerW < mira.PowerW && m.PowerW < openm.PowerW && m.PowerW < wifi.PowerW) {
		t.Error("mmX power should undercut MiRa, OpenMili and WiFi")
	}
	if !(m.EnergyPerBitNJ() < wifi.EnergyPerBitNJ() && m.EnergyPerBitNJ() < bt.EnergyPerBitNJ()) {
		t.Error("mmX nJ/bit should beat WiFi and Bluetooth (§1)")
	}
	if !(m.BitrateBps > 50*bt.BitrateBps) {
		t.Error("mmX should be ≫ Bluetooth bitrate")
	}
	if !(mira.BitrateBps > m.BitrateBps) {
		t.Error("MiRa's Gbps should exceed mmX's 100 Mbps")
	}
	// Paper's quoted efficiencies: MiRa 11.6, WiFi 17.5, BT 29 nJ/bit.
	if e := mira.EnergyPerBitNJ(); math.Abs(e-11.6) > 0.1 {
		t.Errorf("MiRa nJ/bit = %g", e)
	}
	if e := wifi.EnergyPerBitNJ(); math.Abs(e-17.5) > 0.1 {
		t.Errorf("WiFi nJ/bit = %g", e)
	}
	if e := bt.EnergyPerBitNJ(); math.Abs(e-29) > 0.1 {
		t.Errorf("Bluetooth nJ/bit = %g", e)
	}
}

func TestRender(t *testing.T) {
	out := Render(Table1())
	for _, want := range []string{
		"mmX", "MiRa", "Bluetooth",
		"Carrier Frequency", "Energy efficiency (nJ/bit)",
		"$110", "100 Mbps", "24 GHz",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 9 {
		t.Errorf("table has %d lines, want 9", lines)
	}
}
