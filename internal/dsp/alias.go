package dsp

import "unsafe"

// Aliases reports whether the first n elements of dst's backing array (n =
// min(cap(dst), len(x)) — the region a len(x)-long result would be written
// to) overlap the read region x[:len(x)]. Transforms that read input
// behind their write cursor (FIR convolution, the filterbank) use it to
// reject in-place calls their access pattern would corrupt; elementwise
// transforms (Scale, NormalizeRMS) alias safely and do not check.
func Aliases(dst, x []complex128) bool {
	n := cap(dst)
	if n > len(x) {
		n = len(x)
	}
	if n == 0 || len(x) == 0 {
		return false
	}
	w := dst[:n]
	const sz = unsafe.Sizeof(complex128(0))
	wLo := uintptr(unsafe.Pointer(&w[0]))
	wHi := wLo + uintptr(n)*sz
	rLo := uintptr(unsafe.Pointer(&x[0]))
	rHi := rLo + uintptr(len(x))*sz
	return wLo < rHi && rLo < wHi
}
