// Package units provides physical constants and unit conversions used
// throughout the mmX simulator: decibel/linear power ratios, dBm/watt
// conversions, frequency/wavelength helpers, and thermal-noise arithmetic.
//
// Conventions: "dB" values are power ratios (10*log10), never amplitude
// ratios. Frequencies are hertz, distances are meters, powers are watts
// unless a name says otherwise (e.g. FromDBm).
package units

import (
	"fmt"
	"math"
)

// Physical constants.
const (
	// SpeedOfLight is the speed of light in vacuum, m/s.
	SpeedOfLight = 299_792_458.0

	// Boltzmann is the Boltzmann constant, J/K.
	Boltzmann = 1.380649e-23

	// RoomTemperature is the reference noise temperature T0, kelvin.
	RoomTemperature = 290.0
)

// Frequency plan constants for the bands mmX uses (§7a of the paper).
const (
	// ISM24GHzCenter is the center of the 24 GHz ISM band, Hz.
	ISM24GHzCenter = 24.125e9
	// ISM24GHzLow is the lower edge of the 24 GHz ISM band, Hz.
	ISM24GHzLow = 24.0e9
	// ISM24GHzHigh is the upper edge of the 24 GHz ISM band, Hz.
	ISM24GHzHigh = 24.25e9
	// ISM24GHzWidth is the usable width of the 24 GHz ISM band, Hz (250 MHz).
	ISM24GHzWidth = 250e6

	// Band60GHzLow is the lower edge of the 60 GHz unlicensed band, Hz.
	Band60GHzLow = 57e9
	// Band60GHzHigh is the upper edge of the 60 GHz unlicensed band, Hz.
	Band60GHzHigh = 64e9
	// Band60GHzWidth is the usable width of the 60 GHz band, Hz (7 GHz).
	Band60GHzWidth = 7e9
)

// DB converts a linear power ratio to decibels. Ratios <= 0 map to -Inf.
func DB(ratio float64) float64 {
	if ratio <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(ratio)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 {
	return math.Pow(10, db/10)
}

// FromDBm converts a power in dBm to watts.
func FromDBm(dbm float64) float64 {
	return math.Pow(10, (dbm-30)/10)
}

// Wavelength returns the free-space wavelength in meters of a frequency in Hz.
func Wavelength(freqHz float64) float64 {
	return SpeedOfLight / freqHz
}

// FSPL returns the free-space path loss in dB (always >= 0 for d >= λ/4π)
// between isotropic antennas separated by d meters at freqHz.
// FSPL(dB) = 20 log10(4π d / λ).
func FSPL(distanceM, freqHz float64) float64 {
	if distanceM <= 0 {
		return 0
	}
	lambda := Wavelength(freqHz)
	return 20 * math.Log10(4*math.Pi*distanceM/lambda)
}

// ThermalNoisePower returns the thermal noise power in watts over the given
// bandwidth at temperature RoomTemperature: N = k*T0*B.
func ThermalNoisePower(bandwidthHz float64) float64 {
	return Boltzmann * RoomTemperature * bandwidthHz
}

// Deg2Rad converts degrees to radians.
func Deg2Rad(deg float64) float64 { return deg * math.Pi / 180 }

// Rad2Deg converts radians to degrees.
func Rad2Deg(rad float64) float64 { return rad * 180 / math.Pi }

// FormatHz renders a frequency with an SI prefix, e.g. "24.125 GHz".
func FormatHz(freqHz float64) string {
	abs := math.Abs(freqHz)
	switch {
	case abs >= 1e9:
		return trimZeros(freqHz/1e9) + " GHz"
	case abs >= 1e6:
		return trimZeros(freqHz/1e6) + " MHz"
	case abs >= 1e3:
		return trimZeros(freqHz/1e3) + " kHz"
	default:
		return trimZeros(freqHz) + " Hz"
	}
}

// FormatBitrate renders a bitrate with an SI prefix, e.g. "100 Mbps".
func FormatBitrate(bps float64) string {
	abs := math.Abs(bps)
	switch {
	case abs >= 1e9:
		return trimZeros(bps/1e9) + " Gbps"
	case abs >= 1e6:
		return trimZeros(bps/1e6) + " Mbps"
	case abs >= 1e3:
		return trimZeros(bps/1e3) + " kbps"
	default:
		return trimZeros(bps) + " bps"
	}
}

func trimZeros(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	for len(s) > 0 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 0 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// EnergyPerBit returns the energy efficiency in joules per bit of a device
// consuming powerW watts while sustaining bitrate bps.
func EnergyPerBit(powerW, bps float64) float64 {
	if bps <= 0 {
		return math.Inf(1)
	}
	return powerW / bps
}

// NanojoulesPerBit is EnergyPerBit expressed in nJ/bit, the unit Table 1 uses.
func NanojoulesPerBit(powerW, bps float64) float64 {
	return EnergyPerBit(powerW, bps) * 1e9
}
