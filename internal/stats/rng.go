// Package stats provides the deterministic random-number generation,
// probability distributions, and descriptive statistics (mean, extrema,
// percentiles, Q-function) used by the mmX simulator and its experiment
// harness. All randomness in the repository flows through stats.RNG so that
// every experiment is reproducible from a seed.
package stats

import (
	"math"

	"mmx/internal/par"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). It is not safe for concurrent use; create one per
// goroutine or per experiment.
type RNG struct {
	s [4]uint64
	// the second deviate of the last polar point, and whether StdNormals
	// has yet to hand it out
	gauss    float64
	hasGauss bool
}

// NewRNG returns a generator seeded from the given seed using SplitMix64,
// so nearby seeds still produce uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	out, s0, s1, s2, s3 := step(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return out
}

// step is one xoshiro256** step over a state held in four words, so that
// a loop drawing many values keeps the state in registers.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Float64 returns a uniform deviate in [0, 1).
func (r *RNG) Float64() float64 {
	return unit(r.Uint64())
}

// unit maps 64 random bits to a uniform deviate in [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Uniform returns a uniform deviate in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// StdNormals fills dst with standard (mean 0, stddev 1) Gaussian
// deviates by Marsaglia's polar method: each accepted point gives two, a
// deviate cached by the last call is used first, and an odd count caches
// the second deviate of its last point for the next call. So the values
// and the state after the call do not depend on how a stream of draws is
// split into calls. A serial pass draws the uniforms and runs the
// rejection test, parking each accepted (u, v) in dst; the Log and Sqrt
// that turn a point into its deviates then run in par.Chunks, one index
// per point.
func (r *RNG) StdNormals(dst []float64) {
	if r.hasGauss && len(dst) > 0 {
		r.hasGauss = false
		dst[0] = r.gauss
		dst = dst[1:]
	}
	pairs := dst[:len(dst)&^1]
	r.polar(pairs)
	if len(pairs) < len(dst) {
		var p [2]float64
		r.polar(p[:])
		dst[len(pairs)], r.gauss = polarPair(p[0], p[1])
		r.hasGauss = true
	}
	t := pairTasks.Get()
	t.z = pairs
	par.Chunks(len(pairs)/2, t)
	t.z = nil
	pairTasks.Put(t)
	if len(pairs) > 0 && len(pairs) == len(dst) {
		r.gauss = pairs[len(pairs)-1] // the spent cache one-at-a-time draws leave
	}
}

// polar fills pairs (of even length) with points drawn uniformly in the
// square [−1, 1)², keeping only those strictly inside the unit circle and
// away from its centre (Marsaglia's polar method), each as two
// consecutive values. Every draw is Float64's.
func (r *RNG) polar(pairs []float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for k := 0; k < len(pairs); {
		var a, b uint64
		a, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		b, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		u := float64(2*unit(a)) - 1
		v := float64(2*unit(b)) - 1
		if s := float64(u*u) + float64(v*v); s > 0 && s < 1 {
			pairs[k], pairs[k+1] = u, v
			k += 2
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
}

// polarPair turns an accepted polar point into two independent standard
// deviates. Each product is rounded before it is summed, so no
// architecture fuses it and every build draws the same bits.
func polarPair(u, v float64) (z0, z1 float64) {
	s := float64(u*u) + float64(v*v)
	f := math.Sqrt(-2 * math.Log(s) / s)
	return u * f, v * f
}

// pairTask is StdNormals' chunked transform: z holds accepted (u, v)
// points, overwritten in place by their deviates.
type pairTask struct{ z []float64 }

var pairTasks par.FreeList[pairTask]

func (t *pairTask) Range(lo, hi int) {
	for k := 2 * lo; k < 2*hi; k += 2 {
		t.z[k], t.z[k+1] = polarPair(t.z[k], t.z[k+1])
	}
}

// Exp returns an exponentially distributed deviate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent child generator from the current state.
// Useful to hand each simulated entity its own stream.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}
