package main

import (
	"math"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the acceptance check computes its spread from, except that the
// result is kept inside the sample's range (on three samples or fewer
// that method extrapolates past it). Fewer than two samples have no
// spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return median(xs), median(xs)
	}
	s := sorted(xs)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return min(max((s[j-1]*(4-delta)+s[j]*delta)/4, s[0]), s[ld-1])
	}
	return cut(1), cut(3)
}

// best is the sample on the better side: the largest when higher is
// better, the smallest when lower is. It is what a metric reports as its
// value (see undisturbed).
func best(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if better == "higher" {
		return s[len(s)-1]
	}
	return s[0]
}

// segments times the consecutive stretches of one pass over a fixed
// piece of work, so that passes over the same work can be compared
// stretch by stretch.
type segments struct {
	last time.Time
	s    []float64
}

func startSegments() *segments { return &segments{last: time.Now()} }

// mark ends the current stretch and starts the next.
func (g *segments) mark() {
	now := time.Now()
	g.s = append(g.s, now.Sub(g.last).Seconds())
	g.last = now
}

func (g *segments) total() float64 { return sum(g.s) }

// undisturbed is the time one pass over the work takes when nothing
// else holds it up: the sum, over the stretches, of the fastest pass
// through each. The reference box is two virtual CPUs of a shared host
// whose neighbours slow a cache- and memory-heavy stretch by half, in
// bursts of a second to minutes; a burst only ever adds time, so the
// median of the passes reads the program plus the neighbours and moves
// 30-45% with them, while the fastest pass through a stretch of a few
// tenths of a second reads the program. With one stretch per pass this
// is the fastest pass.
func undisturbed(passes [][]float64) float64 {
	if len(passes) == 0 {
		return 0
	}
	n := len(passes[0])
	for _, p := range passes {
		n = min(n, len(p))
	}
	t := 0.0
	for j := 0; j < n; j++ {
		fastest := passes[0][j]
		for _, p := range passes[1:] {
			fastest = min(fastest, p[j])
		}
		t += fastest
	}
	return t
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(asc)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(asc) {
		k = len(asc) - 1
	}
	return asc[k]
}

// tailPercentile names the highest of p50/p90/p99/p99.9/p99.99 that
// still has at least ten samples beyond it in a sample of n.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
