// Package tma implements the Time-Modulated Array of §7(b): an antenna
// array whose elements are gated by periodic RF switches so that signals
// arriving from different directions are shifted ("hashed") onto different
// harmonics of the switching frequency. One mmWave chain plus an FFT
// filterbank then separates co-channel transmissions by angle — the SDM
// mechanism that lets many mmX nodes share one frequency channel.
//
// The math follows the paper's Eq. (1)–(4): each element's gating function
// w_n(t) is expanded in its Fourier series with coefficients a_mn (Eq. 3),
// and the array response at harmonic m toward direction θ is
// Σ_n a_mn·e^{j2πd·n·sinθ} (Eq. 4). For the classic sequentially-rotated
// schedule, harmonic m forms a beam toward sinθ ≈ 2m/N (half-wavelength
// spacing), so angle maps linearly onto harmonic index.
//
// The coefficients a_mn depend on the switching schedule and not on θ, so
// an Array built by NewSDMArray carries the matrix for the harmonics
// GainTable reports (coefMatrix): every entry is the value Coefficient
// returns, computed once, and the per-θ work of HarmonicGain, GainTable
// and BestHarmonic is one multiply-accumulate pass over it (respond).
package tma

import (
	"math"
	"math/cmplx"
	"slices"

	"mmx/internal/dsp/pool"
)

// Schedule describes each element's periodic on-window as fractions of the
// switching period Tp: element n conducts during [On[n], On[n]+Width[n])
// modulo 1.
type Schedule struct {
	On    []float64
	Width []float64
}

// Sequential returns the canonical SDM schedule: the single-pole rotation
// in which element n conducts during the n-th slice of the period.
func Sequential(n int) Schedule {
	s := Schedule{On: make([]float64, n), Width: make([]float64, n)}
	for i := 0; i < n; i++ {
		s.On[i] = float64(i) / float64(n)
		s.Width[i] = 1 / float64(n)
	}
	return s
}

// Gate evaluates w_n at a phase within the period (frac ∈ [0,1)).
func (s Schedule) Gate(n int, frac float64) float64 {
	frac -= math.Floor(frac)
	on := s.On[n] - math.Floor(s.On[n])
	end := on + s.Width[n]
	if frac >= on && frac < end {
		return 1
	}
	// Window may wrap past 1.
	if end > 1 && frac < end-1 {
		return 1
	}
	return 0
}

// Array is a time-modulated linear array.
type Array struct {
	// N is the element count.
	N int
	// SpacingWl is the element spacing in wavelengths (0.5 standard).
	SpacingWl float64
	// SwitchRateHz is the schedule repetition rate f_p; harmonics appear
	// at integer multiples of it.
	SwitchRateHz float64
	// Schedule gates the elements.
	Schedule Schedule
	// coef is the a_mn matrix NewSDMArray computed. It is never written
	// afterwards — GainTable runs concurrently on a shared Array — and
	// coefficients() checks it against N and Schedule before every use, so
	// an Array edited after construction (or built as a struct literal,
	// where coef is empty) gets a matrix computed on the spot instead.
	coef coefMatrix
}

// NewSDMArray returns the AP's SDM front end: n elements at λ/2 with the
// sequential schedule switching at fp.
func NewSDMArray(n int, fp float64) *Array {
	a := &Array{N: n, SpacingWl: 0.5, SwitchRateHz: fp, Schedule: Sequential(n)}
	a.coef = a.buildCoefficients()
	return a
}

// coefMatrix is Coefficient(m, e) for every harmonic m in
// [−MaxHarmonic, MaxHarmonic] and element e of an N-element array, stored
// at a[(m+MaxHarmonic)·N+e], together with a private copy of the N
// on-windows it was computed from.
type coefMatrix struct {
	on, width []float64
	a         []complex128
}

func (a *Array) buildCoefficients() coefMatrix {
	maxM := a.MaxHarmonic()
	c := coefMatrix{
		on:    append([]float64(nil), a.Schedule.On[:a.N]...),
		width: append([]float64(nil), a.Schedule.Width[:a.N]...),
		a:     make([]complex128, 0, (2*maxM+1)*a.N),
	}
	for m := -maxM; m <= maxM; m++ {
		for e := 0; e < a.N; e++ {
			c.a = append(c.a, a.Coefficient(m, e))
		}
	}
	return c
}

// coefficients returns the a_mn matrix for the Array as it is now: the
// one NewSDMArray stored while N and the first N on-windows still equal
// what it was computed from, a fresh one otherwise.
func (a *Array) coefficients() []complex128 {
	c, s := &a.coef, a.Schedule
	if len(s.On) >= a.N && len(s.Width) >= a.N &&
		slices.Equal(c.on, s.On[:a.N]) && slices.Equal(c.width, s.Width[:a.N]) {
		return c.a
	}
	return a.buildCoefficients().a
}

// respond adds the array response toward theta to dst, one entry per row
// of coef (rows of N coefficients): dst[r] += Σ_e coef[r·N+e]·e^{j2πd·e·sinθ}.
// Elements run in the outer loop so each steering phasor is computed once
// and needs no buffer; every dst[r] still accumulates its terms in element
// order, so a row's sum has the bits of the plain per-harmonic loop.
func (a *Array) respond(dst, coef []complex128, theta float64) {
	phasePerElem := 2 * math.Pi * a.SpacingWl * math.Sin(theta)
	for e := 0; e < a.N; e++ {
		p := cmplx.Rect(1, phasePerElem*float64(e))
		for r := range dst {
			dst[r] += coef[r*a.N+e] * p
		}
	}
}

// Coefficient returns the Fourier coefficient a_mn of element n's gating
// function at harmonic m (Eq. 3), computed in closed form for the
// rectangular window: a_mn = w·sinc(m·w)·e^{−jπm(2o+w)}.
func (a *Array) Coefficient(m, n int) complex128 {
	w := a.Schedule.Width[n]
	o := a.Schedule.On[n]
	if w <= 0 {
		return 0
	}
	mag := w * sinc(float64(m)*w)
	phase := -math.Pi * float64(m) * (2*o + w)
	return cmplx.Rect(1, phase) * complex(mag, 0)
}

func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	return math.Sin(math.Pi*x) / (math.Pi * x)
}

// HarmonicGain returns the array's complex response at harmonic m toward
// azimuth theta (Eq. 4): Σ_n a_mn·e^{j2πd·n·sinθ}.
func (a *Array) HarmonicGain(m int, theta float64) complex128 {
	var row []complex128
	if maxM := a.MaxHarmonic(); m >= -maxM && m <= maxM {
		row = a.coefficients()[(m+maxM)*a.N:][:a.N]
	} else {
		row = make([]complex128, a.N)
		for e := range row {
			row[e] = a.Coefficient(m, e)
		}
	}
	var g [1]complex128
	a.respond(g[:], row, theta)
	return g[0]
}

// MaxHarmonic is the largest |m| BestHarmonic considers; beyond ±N/2 the
// sequential schedule's harmonics alias.
func (a *Array) MaxHarmonic() int { return a.N / 2 }

// GainTable returns HarmonicGain(m, theta) for every m in
// [−MaxHarmonic, MaxHarmonic], indexed by m+MaxHarmonic — the building
// block for simnet's coupling, where every co-channel pair needs gains at
// two harmonic indices per angle. The coefficients come from the matrix
// the Array carries (see coefficients), so a table costs N steering
// phasors and one multiply-accumulate pass, no trigonometry per
// coefficient. Each entry is bit-identical to the corresponding
// HarmonicGain call and to the closed form of Eq. 3/4 summed in element
// order: the stored coefficients are Coefficient's own results, and they
// are multiplied and added in the same order.
func (a *Array) GainTable(theta float64) []complex128 {
	return a.GainTableInto(nil, theta)
}

// GainTableInto is GainTable with append-style buffer reuse: the table is
// written into dst's storage when its capacity suffices, and costs no
// other allocation.
func (a *Array) GainTableInto(dst []complex128, theta float64) []complex128 {
	rows := 2*a.MaxHarmonic() + 1
	if cap(dst) < rows {
		dst = make([]complex128, rows)
	}
	dst = dst[:rows]
	clear(dst)
	a.respond(dst, a.coefficients(), theta)
	return dst
}

// BestHarmonic returns the harmonic index whose response toward theta is
// strongest — the frequency bin a transmitter at that angle lands in.
func (a *Array) BestHarmonic(theta float64) int {
	var buf [33]complex128 // arrays up to N=32 pick without allocating
	return BestHarmonicOf(a.GainTableInto(buf[:0], theta))
}

// BestHarmonicOf is BestHarmonic for a caller that already holds the
// GainTable at the angle: the harmonic of the strongest entry, the lowest
// one on a tie.
func BestHarmonicOf(table []complex128) int {
	maxM := (len(table) - 1) / 2
	best, bestMag := 0, -1.0
	for i, g := range table {
		if mag := cmplx.Abs(g); mag > bestMag {
			bestMag = mag
			best = i - maxM
		}
	}
	return best
}

// SidebandSuppressionDB returns how far (dB) the second-strongest harmonic
// sits below the strongest for a source at theta — the paper's "only one
// copy has significant amplitude" claim, typically 10–30 dB depending on
// angle and N.
func (a *Array) SidebandSuppressionDB(theta float64) float64 {
	best, second := -1.0, -1.0
	for m := -a.MaxHarmonic(); m <= a.MaxHarmonic(); m++ {
		mag := cmplx.Abs(a.HarmonicGain(m, theta))
		if mag > best {
			second = best
			best = mag
		} else if mag > second {
			second = mag
		}
	}
	if second <= 0 {
		return math.Inf(1)
	}
	return 20 * math.Log10(best/second)
}

// Source is one co-channel transmission arriving at the TMA.
type Source struct {
	// Theta is the angle of arrival.
	Theta float64
	// Baseband is the transmission's complex baseband stream (already at
	// the shared channel frequency).
	Baseband []complex128
}

// MixInto produces the single-chain output of the TMA for a set of
// co-channel sources, sampled at fs: y[t] = Σ_i s_i[t]·Σ_n
// w_n(t)·e^{j2πd·n·sinθ_i}. The output length is the shortest source; it
// is written into dst's storage when its capacity suffices (nil
// allocates), and no sources yield nil. The per-source element phase
// table lives in a pooled scratch buffer.
func (a *Array) MixInto(dst []complex128, sources []Source, fs float64) []complex128 {
	if len(sources) == 0 {
		return nil
	}
	n := len(sources[0].Baseband)
	for _, s := range sources[1:] {
		if len(s.Baseband) < n {
			n = len(s.Baseband)
		}
	}
	// Precompute per-source element phases (source i, element e at
	// phases[i*a.N+e]).
	phases := pool.Complex(len(sources) * a.N)
	for i, s := range sources {
		pe := 2 * math.Pi * a.SpacingWl * math.Sin(s.Theta)
		for e := 0; e < a.N; e++ {
			phases[i*a.N+e] = cmplx.Rect(1, pe*float64(e))
		}
	}
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	out := dst[:n]
	for t := 0; t < n; t++ {
		frac := math.Mod(float64(t)*a.SwitchRateHz/fs, 1)
		var acc complex128
		for i, s := range sources {
			var sum complex128
			for e := 0; e < a.N; e++ {
				if a.Schedule.Gate(e, frac) > 0 {
					sum += phases[i*a.N+e]
				}
			}
			acc += s.Baseband[t] * sum
		}
		out[t] = acc
	}
	pool.PutComplex(phases)
	return out
}

// ExtractInto recovers the stream parked at harmonic m from a TMA output:
// it mixes the capture down by m·f_p and applies a boxcar
// integrate-and-dump over one switching period, the matched filter for the
// rectangular gating. The result is written into dst's storage when its
// capacity suffices (nil allocates); the mixed-down intermediate lives in
// a pooled scratch buffer. dst must not alias y.
func (a *Array) ExtractInto(dst, y []complex128, m int, fs float64) []complex128 {
	shift := -2 * math.Pi * float64(m) * a.SwitchRateHz / fs
	period := int(math.Round(fs / a.SwitchRateHz))
	if period < 1 {
		period = 1
	}
	mixed := pool.Complex(len(y))
	for t := range y {
		mixed[t] = y[t] * cmplx.Rect(1, shift*float64(t))
	}
	if cap(dst) < len(y) {
		dst = make([]complex128, len(y))
	}
	out := dst[:len(y)]
	var acc complex128
	for t := range mixed {
		acc += mixed[t]
		if t >= period {
			acc -= mixed[t-period]
		}
		den := period
		if t+1 < period {
			den = t + 1
		}
		out[t] = acc / complex(float64(den), 0)
	}
	pool.PutComplex(mixed)
	return out
}
