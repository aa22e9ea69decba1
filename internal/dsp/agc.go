package dsp

import "math"

// NormalizeRMS scales x (in place) so its RMS amplitude equals target —
// the block-AGC used when the whole capture is available at once, as in
// the AP's buffered processing. It returns the gain applied.
func NormalizeRMS(x []complex128, target float64) float64 {
	p := Power(x)
	if p <= 0 || target <= 0 {
		return 1
	}
	g := target / math.Sqrt(p)
	Scale(x, complex(g, 0))
	return g
}
