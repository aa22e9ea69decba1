package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestDBRoundtrip(t *testing.T) {
	cases := []float64{1, 2, 10, 100, 0.5, 1e-9, 3.16227766}
	for _, r := range cases {
		if got := FromDB(DB(r)); !almostEq(got, r, 1e-9*r) {
			t.Errorf("FromDB(DB(%g)) = %g", r, got)
		}
	}
}

func TestDBKnownValues(t *testing.T) {
	cases := []struct {
		ratio, db float64
	}{
		{1, 0},
		{10, 10},
		{100, 20},
		{2, 3.0102999566},
		{0.1, -10},
	}
	for _, c := range cases {
		if got := DB(c.ratio); !almostEq(got, c.db, 1e-6) {
			t.Errorf("DB(%g) = %g, want %g", c.ratio, got, c.db)
		}
	}
}

func TestDBNonPositive(t *testing.T) {
	if !math.IsInf(DB(0), -1) {
		t.Error("DB(0) should be -Inf")
	}
	if !math.IsInf(DB(-3), -1) {
		t.Error("DB(-3) should be -Inf")
	}
}

func TestDBmKnownValues(t *testing.T) {
	if got := FromDBm(30); !almostEq(got, 1, 1e-12) {
		t.Errorf("FromDBm(30) = %g, want 1 W", got)
	}
	if got := FromDBm(0); !almostEq(got, 0.001, 1e-15) {
		t.Errorf("FromDBm(0) = %g, want 1 mW", got)
	}
	if got := FromDBm(10); !almostEq(got, 0.01, 1e-12) {
		t.Errorf("FromDBm(10) = %g, want 0.01", got)
	}
}

func TestDBmRoundtripProperty(t *testing.T) {
	f := func(exp uint8) bool {
		// powers spanning 1 fW .. 100 W
		w := math.Pow(10, float64(exp%18)-15)
		return almostEq(FromDBm(DB(w)+30), w, 1e-9*w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWavelength(t *testing.T) {
	// 24 GHz -> ~12.5 mm
	l := Wavelength(24e9)
	if !almostEq(l, 0.0124913524, 1e-8) {
		t.Errorf("Wavelength(24 GHz) = %g", l)
	}
}

func TestFSPL(t *testing.T) {
	// FSPL at 1 m, 24 GHz ≈ 60.1 dB.
	got := FSPL(1, 24e9)
	if !almostEq(got, 60.06, 0.05) {
		t.Errorf("FSPL(1 m, 24 GHz) = %g, want ≈60.06", got)
	}
	// Doubling distance adds ~6.02 dB.
	d2 := FSPL(2, 24e9) - FSPL(1, 24e9)
	if !almostEq(d2, 6.0206, 1e-3) {
		t.Errorf("FSPL doubling delta = %g, want ≈6.02", d2)
	}
	if FSPL(0, 24e9) != 0 {
		t.Error("FSPL at zero distance should be 0 by convention")
	}
}

func TestFSPLMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		d1 := 0.1 + float64(a%1000)/10
		d2 := d1 + 0.1 + float64(b%1000)/10
		return FSPL(d2, 24e9) > FSPL(d1, 24e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThermalNoise(t *testing.T) {
	// kT0 ≈ -174 dBm/Hz.
	dBm := func(w float64) float64 { return DB(w) + 30 }
	perHz := dBm(ThermalNoisePower(1))
	if !almostEq(perHz, -173.975, 0.01) {
		t.Errorf("thermal noise per Hz = %g dBm, want ≈-174", perHz)
	}
	// 250 MHz band: -174 + 84 ≈ -90 dBm.
	if n := dBm(ThermalNoisePower(250e6)); !almostEq(n, -90, 0.2) {
		t.Errorf("thermal noise over 250 MHz = %g dBm, want ≈-90", n)
	}
}

func TestAngles(t *testing.T) {
	if !almostEq(Deg2Rad(180), math.Pi, 1e-12) {
		t.Error("Deg2Rad(180) != pi")
	}
	if !almostEq(Rad2Deg(math.Pi/2), 90, 1e-12) {
		t.Error("Rad2Deg(pi/2) != 90")
	}
}

func TestFormatHz(t *testing.T) {
	cases := []struct {
		f    float64
		want string
	}{
		{24.125e9, "24.125 GHz"},
		{250e6, "250 MHz"},
		{1e3, "1 kHz"},
		{50, "50 Hz"},
	}
	for _, c := range cases {
		if got := FormatHz(c.f); got != c.want {
			t.Errorf("FormatHz(%g) = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestFormatBitrate(t *testing.T) {
	if got := FormatBitrate(100e6); got != "100 Mbps" {
		t.Errorf("FormatBitrate = %q", got)
	}
	if got := FormatBitrate(1.3e9); got != "1.3 Gbps" {
		t.Errorf("FormatBitrate = %q", got)
	}
}

func TestEnergyPerBit(t *testing.T) {
	// The paper's anchor: 1.1 W at 100 Mbps = 11 nJ/bit.
	if got := NanojoulesPerBit(1.1, 100e6); !almostEq(got, 11, 1e-9) {
		t.Errorf("NanojoulesPerBit(1.1, 100e6) = %g, want 11", got)
	}
	if !math.IsInf(EnergyPerBit(1, 0), 1) {
		t.Error("EnergyPerBit at zero rate should be +Inf")
	}
}

func TestBandConstants(t *testing.T) {
	if ISM24GHzHigh-ISM24GHzLow != ISM24GHzWidth {
		t.Error("24 GHz ISM band width inconsistent")
	}
	if Band60GHzHigh-Band60GHzLow != Band60GHzWidth {
		t.Error("60 GHz band width inconsistent")
	}
	if c := (ISM24GHzLow + ISM24GHzHigh) / 2; !almostEq(c, ISM24GHzCenter, 1) {
		t.Errorf("ISM center = %g, want %g", ISM24GHzCenter, c)
	}
}
