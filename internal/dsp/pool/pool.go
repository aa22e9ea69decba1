// Package pool provides size-classed, sync.Pool-backed scratch buffers for
// the PHY sample pipeline. The hot path — waveform synthesis, filterbank
// extraction, FIR filtering, demodulation — churns through short-lived
// []complex128 slices whose sizes repeat frame after frame; recycling them
// removes the dominant GC pressure of the sample-domain code.
//
// Ownership rules (see DESIGN.md §2):
//
//   - Complex transfers ownership of the returned slice to the caller.
//     The contents are arbitrary (NOT zeroed); callers must write every
//     element they read.
//   - PutComplex returns ownership to the pool. After Put the caller must
//     not touch the slice again; nothing may Put a slice it does not own,
//     and a slice that has escaped to an API caller (e.g. a returned
//     capture) must never be Put.
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

var complexPools [maxClass + 1]sync.Pool

// Slice headers handed to sync.Pool must be heap-allocated (*[]T); to keep
// the steady state truly allocation-free the headers themselves are
// recycled through a side pool, so a Get/Put roundtrip reuses both the
// payload array and its header box.
var complexHeaders = sync.Pool{New: func() any { return new([]complex128) }}

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
func Complex(n int) []complex128 {
	c := class(n)
	if c < 0 {
		return make([]complex128, n)
	}
	if v := complexPools[c].Get(); v != nil {
		h := v.(*[]complex128)
		buf := *h
		*h = nil
		complexHeaders.Put(h)
		return buf[:n]
	}
	return make([]complex128, n, 1<<c)
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

// PutComplex returns a buffer to its size class. Empty or oversized
// backing arrays are dropped.
func PutComplex(buf []complex128) {
	cp := cap(buf)
	c := putClass(cp)
	if c < 0 {
		return
	}
	h := complexHeaders.Get().(*[]complex128)
	*h = buf[:cp]
	complexPools[c].Put(h)
}
