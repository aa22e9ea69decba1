package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"mmx/internal/dsp/pool"
)

// FFT plan cache. Every transform of a given length reuses the same
// precomputed tables: the bit-reversal permutation and per-stage twiddle
// factors for power-of-two lengths, and for every other length the
// radices of its mixed-radix stages plus one table of the n-th roots of
// unity. Plans are immutable after construction and shared process-wide,
// so repeated same-size transforms — the filterbank's per-block FFT,
// overlap-save convolution blocks, the demodulator's spectral probes —
// stop re-deriving trigonometry on every call. Per-call state (the
// mixed-radix work buffer) comes from the package buffer pool, keeping
// plan execution safe for concurrent use and allocation-free in steady
// state.

// FFTPlan holds the precomputed tables for transforms of one length.
// Obtain one with PlanFFT; the zero value is not usable. A plan is
// immutable and safe for concurrent use.
type FFTPlan struct {
	n int

	// Power-of-two path: bit-reversal permutation and forward twiddles,
	// flattened stage by stage (stage of size s contributes s/2 entries:
	// w_s^k = e^{-j2πk/s}). Inverse transforms conjugate on the fly.
	perm    []int32
	twiddle []complex128

	// Mixed-radix path (n not a power of two): the radix of each
	// Stockham stage in execution order, and roots[k] = e^{-j2πk/n}, the
	// one table every stage's twiddles and butterfly roots index into.
	radices []int
	roots   []complex128
}

var planCache sync.Map // int → *FFTPlan

// PlanFFT returns the process-wide shared plan for length-n transforms,
// building and caching it on first use. n must be positive.
func PlanFFT(n int) *FFTPlan {
	if n <= 0 {
		panic("dsp: PlanFFT length must be positive")
	}
	if p, ok := planCache.Load(n); ok {
		return p.(*FFTPlan)
	}
	p := newPlan(n)
	// Two goroutines may build the same plan concurrently; the first
	// stored copy wins so every caller shares one set of tables.
	if prev, loaded := planCache.LoadOrStore(n, p); loaded {
		return prev.(*FFTPlan)
	}
	return p
}

// Len returns the transform length the plan serves.
func (p *FFTPlan) Len() int { return p.n }

func newPlan(n int) *FFTPlan {
	p := &FFTPlan{n: n}
	if n&(n-1) == 0 {
		p.initRadix2(n)
		return p
	}
	// One stage per prime factor, in ascending order.
	m := n
	for r := 2; m > 1; r++ {
		for m%r == 0 {
			p.radices = append(p.radices, r)
			m /= r
		}
	}
	p.roots = make([]complex128, n)
	for k := range p.roots {
		p.roots[k] = cmplx.Rect(1, -2*math.Pi*float64(k)/float64(n))
	}
	return p
}

func (p *FFTPlan) initRadix2(n int) {
	p.perm = make([]int32, n)
	if n > 1 {
		shift := 64 - uint(bits.TrailingZeros(uint(n)))
		for i := 0; i < n; i++ {
			p.perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
		}
	}
	if n >= 2 {
		p.twiddle = make([]complex128, n-1)
		idx := 0
		for size := 2; size <= n; size <<= 1 {
			half := size >> 1
			step := -2 * math.Pi / float64(size)
			for k := 0; k < half; k++ {
				p.twiddle[idx] = cmplx.Rect(1, step*float64(k))
				idx++
			}
		}
	}
}

// Forward computes the unnormalized DFT of x into dst's storage (append
// semantics) and returns the length-n result. dst == x transforms in
// place. len(x) must equal the plan length.
func (p *FFTPlan) Forward(dst, x []complex128) []complex128 {
	return p.execute(dst, x, false)
}

// Inverse computes the inverse DFT of x (normalized by 1/n) into dst's
// storage and returns the result. dst == x transforms in place.
func (p *FFTPlan) Inverse(dst, x []complex128) []complex128 {
	return p.execute(dst, x, true)
}

func (p *FFTPlan) execute(dst, x []complex128, inverse bool) []complex128 {
	if len(x) != p.n {
		panic("dsp: FFTPlan length mismatch")
	}
	if cap(dst) < p.n {
		dst = make([]complex128, p.n)
	}
	dst = dst[:p.n]
	if p.perm != nil {
		if &dst[0] != &x[0] {
			copy(dst, x)
		}
		if inverse {
			p.inverseInPlace(dst)
		} else {
			p.forwardInPlace(dst)
		}
		return dst
	}
	p.mixed(dst, x, inverse)
	return dst
}

// forwardInPlace runs the iterative radix-2 Cooley-Tukey butterfly network
// over a, which must have the plan's power-of-two length.
func (p *FFTPlan) forwardInPlace(a []complex128) {
	n := p.n
	if n <= 1 {
		return
	}
	for i, j := range p.perm {
		if int(j) > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	tw := p.twiddle
	idx := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stage := tw[idx : idx+half]
		idx += half
		for start := 0; start < n; start += size {
			for k, w := range stage {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
			}
		}
	}
}

// inverseInPlace is forwardInPlace with conjugated twiddles followed by
// the 1/n normalization.
func (p *FFTPlan) inverseInPlace(a []complex128) {
	n := p.n
	if n <= 1 {
		return
	}
	for i, j := range p.perm {
		if int(j) > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	tw := p.twiddle
	idx := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stage := tw[idx : idx+half]
		idx += half
		for start := 0; start < n; start += size {
			for k, w := range stage {
				u := a[start+k]
				v := a[start+k+half] * complex(real(w), -imag(w))
				a[start+k] = u + v
				a[start+k+half] = u - v
			}
		}
	}
	inv := complex(1/float64(n), 0)
	for i := range a {
		a[i] *= inv
	}
}

// mixed runs the Stockham autosort form of mixed-radix Cooley–Tukey: one
// decimation-in-frequency pass per radix, ping-ponging between dst and a
// pooled work buffer, with the output already in natural order (no
// permutation pass). The stage buffers alternate so that the last stage
// lands in dst; x is only read, unless it is dst. The inverse transform
// uses DFT⁻¹(x) = conj(DFT(conj(x)))/n, so one set of forward tables
// serves both directions.
func (p *FFTPlan) mixed(dst, x []complex128, inverse bool) {
	n := p.n
	work := pool.Complex(n)
	cur, next := dst, work
	if len(p.radices)%2 == 0 {
		cur, next = work, dst
	}
	src := x
	switch {
	case inverse:
		for k, v := range x {
			next[k] = complex(real(v), -imag(v))
		}
		src = next
	case &x[0] == &cur[0]:
		copy(next, x)
		src = next
	}
	s := 1 // product of the radices already applied: the stage's stride
	for _, r := range p.radices {
		m := n / (s * r)
		switch r {
		case 2:
			p.radix2(cur, src, s, m)
		case 5:
			p.radix5(cur, src, s, m)
		default:
			p.radixOdd(cur, src, r, s, m)
		}
		s *= r
		src = cur
		cur, next = next, cur
	}
	if inverse {
		invN := 1 / float64(n)
		for k, v := range dst {
			dst[k] = complex(real(v)*invN, -imag(v)*invN)
		}
	}
	pool.PutComplex(work)
}

// One Stockham stage of radix r over the current sub-transform length
// r·m at stride s. For every j < m and q < s it reads the r inputs
// x[q + s(j + k·m)], k < r, takes their r-point DFT c_i, and writes
// c_i·e^{-j2πij/(rm)} = c_i·roots[i·j·s] to y[q + s(r·j + i)]. The
// twiddles depend on j alone, so each is loaded once per s butterflies.

func (p *FFTPlan) radix2(y, x []complex128, s, m int) {
	for j := 0; j < m; j++ {
		w := p.roots[j*s]
		x0, x1 := x[s*j:s*j+s], x[s*(j+m):s*(j+m)+s]
		y0, y1 := y[2*s*j:2*s*j+s], y[2*s*j+s:2*s*j+2*s]
		for q, a := range x0 {
			b := x1[q]
			y0[q] = a + b
			y1[q] = (a - b) * w
		}
	}
}

// radix5 pairs the inputs symmetrically: with t_1 = a_1+a_4, t_2 =
// a_2+a_3, d_1 = a_1−a_4, d_2 = a_2−a_3, c_{1,4} = a_0 + C1·t_1 + C2·t_2
// ∓ j(S1·d_1 + S2·d_2) and c_{2,3} = a_0 + C2·t_1 + C1·t_2 ∓ j(S2·d_1 −
// S1·d_2), where Ck = cos(2πk/5) and Sk = sin(2πk/5).
func (p *FFTPlan) radix5(y, x []complex128, s, m int) {
	const (
		c1 = 0.30901699437494742410  // cos(2π/5)
		c2 = -0.80901699437494742410 // cos(4π/5)
		s1 = 0.95105651629515357212  // sin(2π/5)
		s2 = 0.58778525229247312917  // sin(4π/5)
	)
	for j := 0; j < m; j++ {
		w1, w2, w3, w4 := p.roots[j*s], p.roots[2*j*s], p.roots[3*j*s], p.roots[4*j*s]
		x0, x1 := x[s*j:s*j+s], x[s*(j+m):s*(j+m)+s]
		x2, x3 := x[s*(j+2*m):s*(j+2*m)+s], x[s*(j+3*m):s*(j+3*m)+s]
		x4 := x[s*(j+4*m) : s*(j+4*m)+s]
		o := 5 * s * j
		y0, y1, y2 := y[o:o+s], y[o+s:o+2*s], y[o+2*s:o+3*s]
		y3, y4 := y[o+3*s:o+4*s], y[o+4*s:o+5*s]
		for q, a0 := range x0 {
			a1, a2, a3, a4 := x1[q], x2[q], x3[q], x4[q]
			t1r, t1i := real(a1)+real(a4), imag(a1)+imag(a4)
			t2r, t2i := real(a2)+real(a3), imag(a2)+imag(a3)
			d1r, d1i := real(a1)-real(a4), imag(a1)-imag(a4)
			d2r, d2i := real(a2)-real(a3), imag(a2)-imag(a3)
			m1 := complex(real(a0)+c1*t1r+c2*t2r, imag(a0)+c1*t1i+c2*t2i)
			m2 := complex(real(a0)+c2*t1r+c1*t2r, imag(a0)+c2*t1i+c1*t2i)
			// −j·n for n = S1·d_1 + S2·d_2 and n = S2·d_1 − S1·d_2.
			n1 := complex(s1*d1i+s2*d2i, -(s1*d1r + s2*d2r))
			n2 := complex(s2*d1i-s1*d2i, -(s2*d1r - s1*d2r))
			y0[q] = complex(real(a0)+t1r+t2r, imag(a0)+t1i+t2i)
			y1[q] = (m1 + n1) * w1
			y2[q] = (m2 + n2) * w2
			y3[q] = (m2 - n2) * w3
			y4[q] = (m1 - n1) * w4
		}
	}
}

// radixOdd is the generic butterfly for any other prime r: the r-point
// DFT evaluated directly, O(r²) per butterfly, so a stage costs O(n·r)
// and a length with a large prime factor p costs O(n·p). Its roots
// e^{-j2πik/r} are roots[(i·k mod r)·n/r].
func (p *FFTPlan) radixOdd(y, x []complex128, r, s, m int) {
	step := p.n / r
	for j := 0; j < m; j++ {
		for q := 0; q < s; q++ {
			for i := 0; i < r; i++ {
				var acc complex128
				e := 0 // i·k mod r
				for k := 0; k < r; k++ {
					acc += x[q+s*(j+k*m)] * p.roots[e*step]
					if e += i; e >= r {
						e -= r
					}
				}
				y[q+s*(r*j+i)] = acc * p.roots[i*j*s]
			}
		}
	}
}
