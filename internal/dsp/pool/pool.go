// Package pool provides size-classed, sync.Pool-backed scratch buffers for
// the PHY sample pipeline. The hot path — waveform synthesis, noise and
// phase-noise draws, filterbank extraction, FIR filtering, demodulation —
// churns through short-lived []complex128 and []float64 slices whose sizes
// repeat frame after frame; recycling them removes the dominant GC
// pressure of the sample-domain code.
//
// Ownership rules (see DESIGN.md §2):
//
//   - Complex and Float64 transfer ownership of the returned slice to the
//     caller. The contents are arbitrary (NOT zeroed); callers must write
//     every element they read.
//   - PutComplex and PutFloat64 return ownership to the pool. After Put the
//     caller must not touch the slice again; nothing may Put a slice it does
//     not own, and a slice that has escaped to an API caller (e.g. a
//     returned capture) must never be Put.
//   - Slices obtained elsewhere (make, append growth) may be Put as long
//     as they are not aliased; the pool size-classes by capacity.
package pool

import (
	"math/bits"
	"sync"
)

// maxClass bounds the pooled size classes at 2^maxClass elements
// (2^24 complex128 = 256 MiB); larger requests fall through to make and
// are dropped on Put, so a single huge capture cannot pin memory forever.
const maxClass = 24

// classes is one element type's pools, one per size class. Slice headers
// handed to sync.Pool must be heap-allocated (*[]T); to keep the steady
// state truly allocation-free the headers themselves are recycled through
// a side pool, so a Get/Put roundtrip reuses both the payload array and
// its header box.
type classes[T any] struct {
	pools   [maxClass + 1]sync.Pool
	headers sync.Pool
}

var (
	complexes classes[complex128]
	floats    classes[float64]
)

// class returns the size-class index for n elements: the smallest c with
// 1<<c >= n, or -1 when n is out of pooled range.
func class(n int) int {
	if n <= 0 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c > maxClass {
		return -1
	}
	return c
}

// Complex returns a []complex128 of length n with arbitrary contents,
// backed by a pooled array of capacity 2^⌈log2 n⌉. The caller owns it
// until PutComplex.
func Complex(n int) []complex128 { return complexes.get(n) }

// PutComplex returns a buffer to its size class. Empty or oversized
// backing arrays are dropped.
func PutComplex(buf []complex128) { complexes.put(buf) }

// Float64 is Complex for []float64; the caller owns the slice until
// PutFloat64.
func Float64(n int) []float64 { return floats.get(n) }

// PutFloat64 is PutComplex for []float64.
func PutFloat64(buf []float64) { floats.put(buf) }

func (p *classes[T]) get(n int) []T {
	c := class(n)
	if c < 0 {
		return make([]T, n)
	}
	if v := p.pools[c].Get(); v != nil {
		h := v.(*[]T)
		buf := *h
		*h = nil
		p.headers.Put(h)
		return buf[:n]
	}
	return make([]T, n, 1<<c)
}

// putClass returns the size class a buffer of capacity cp is filed under
// on Put — the largest class it can fully serve — or -1 when the buffer is
// dropped: empty, or above the largest pooled class.
func putClass(cp int) int {
	c := class(cp)
	if cp == 0 || c < 0 {
		return -1
	}
	if 1<<c != cp {
		c-- // non-power-of-two capacity: the class below
	}
	return c
}

func (p *classes[T]) put(buf []T) {
	cp := cap(buf)
	c := putClass(cp)
	if c < 0 {
		return
	}
	h, _ := p.headers.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = buf[:cp]
	p.pools[c].Put(h)
}
