// Package vec provides the bulk uint64-vector arithmetic shared by the
// privacy hot path: cell-wise addition and subtraction modulo 2⁶⁴ over the
// flat counter slices of package sketch and the blinding/adjustment
// vectors of package blind, and the fused little-endian decode-add WAL
// replay folds logged report cells with.
//
// All operations wrap around, matching the additive-shares-of-zero
// arithmetic of the protocol. Large vectors are split into chunks and
// processed by up to runtime.GOMAXPROCS workers; small vectors stay on the
// caller's goroutine so the common ε = δ = 0.001 sketch (≈19k cells) pays
// no synchronization cost unless it profits from it.
//
// The element kernels themselves are selected once at init (see
// dispatch.go): checked-in AVX2 (amd64) or NEON (arm64) assembly when
// the host supports it, and the portable generic Go loops otherwise —
// or always, under the `purego` build tag or the EYEWNDER_NOSIMD
// environment override. Every path computes bit-identical results;
// the equivalence tests assert it.
package vec

import (
	"encoding/binary"
	"runtime"
	"sync"
)

// parallelThreshold is the element count above which Add/Sub/AddLE fan out to
// worker goroutines. Below it the goroutine hand-off costs more than the
// adds it would save.
const parallelThreshold = 1 << 15

// minChunk keeps worker chunks large enough to amortize scheduling.
const minChunk = 1 << 13

// Add adds src into dst element-wise modulo 2⁶⁴. The slices must have the
// same length (the caller validates; mismatch panics).
func Add(dst, src []uint64) {
	if len(dst) != len(src) {
		panic("vec: length mismatch")
	}
	if len(dst) < parallelThreshold {
		addImpl(dst, src)
		return
	}
	parallel(len(dst), minChunk, func(lo, hi int) { addImpl(dst[lo:hi], src[lo:hi]) })
}

// Sub subtracts src from dst element-wise modulo 2⁶⁴. The slices must have
// the same length.
func Sub(dst, src []uint64) {
	if len(dst) != len(src) {
		panic("vec: length mismatch")
	}
	if len(dst) < parallelThreshold {
		subImpl(dst, src)
		return
	}
	parallel(len(dst), minChunk, func(lo, hi int) { subImpl(dst[lo:hi], src[lo:hi]) })
}

// AddLE adds the little-endian uint64 words of src into dst element-wise
// modulo 2⁶⁴: dst[i] += word i of src. It is GetLE and Add fused into
// one pass with no intermediate vector — the fold of a logged report's
// raw cell block during WAL replay. src may sit at any byte alignment;
// it must hold exactly 8*len(dst) bytes.
func AddLE(dst []uint64, src []byte) {
	if len(src) != 8*len(dst) {
		panic("vec: length mismatch")
	}
	if len(dst) < parallelThreshold {
		addLEImpl(dst, src)
		return
	}
	parallel(len(dst), minChunk, func(lo, hi int) { addLEImpl(dst[lo:hi], src[8*lo:8*hi]) })
}

// addGeneric is the portable scalar kernel, unrolled 4-wide; after the
// bounds hint the compiler keeps the loop check-free. It is both the
// fallback when no SIMD kernel is selected and the reference the
// equivalence tests compare the assembly kernels against.
func addGeneric(dst, src []uint64) {
	_ = dst[:len(src)]
	n := len(src) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for i := n; i < len(src); i++ {
		dst[i] += src[i]
	}
}

func subGeneric(dst, src []uint64) {
	_ = dst[:len(src)]
	n := len(src) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] -= src[i]
		dst[i+1] -= src[i+1]
		dst[i+2] -= src[i+2]
		dst[i+3] -= src[i+3]
	}
	for i := n; i < len(src); i++ {
		dst[i] -= src[i]
	}
}

// addLEGeneric is the portable decode-add: one little-endian load per
// word, valid on any host byte order and any source alignment.
func addLEGeneric(dst []uint64, src []byte) {
	_ = src[:8*len(dst)]
	for i := range dst {
		dst[i] += binary.LittleEndian.Uint64(src[8*i:])
	}
}

// parallel splits [0, n) into per-worker half-open ranges of at least min
// elements and runs fn on each concurrently. Ranges never overlap, so fn
// may write its slice section without locking.
func parallel(n, min int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if max := n / min; workers > max {
		workers = max
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Parallel exposes the range splitter for callers that need chunked
// parallelism over index spaces other than a slice (e.g. the back-end's
// ad-ID enumeration). minPerWorker bounds how finely the range is split;
// fn receives non-overlapping [lo, hi) ranges and runs concurrently.
func Parallel(n, minPerWorker int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minPerWorker < 1 {
		minPerWorker = 1
	}
	parallel(n, minPerWorker, fn)
}
