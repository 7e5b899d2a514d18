//go:build arm64 && !purego

package vec

import "eyewnder/internal/vec/cpu"

// addNEON adds src into dst element-wise modulo 2⁶⁴, 8 words (four
// 128-bit vector registers) per iteration with a scalar tail.
// Implemented in kernels_arm64.s; the wrapper layer guarantees
// len(dst) == len(src).
//
//go:noescape
func addNEON(dst, src []uint64)

// subNEON subtracts src from dst element-wise modulo 2⁶⁴.
//
//go:noescape
func subNEON(dst, src []uint64)

// addLENEON adds the little-endian words of src into dst: addNEON with
// a byte source of any alignment (A64 loads are unaligned-safe on normal
// memory, and the lanes are little-endian). The wrapper guarantees
// len(src) == 8*len(dst); the kernel reads the length from dst.
//
//go:noescape
func addLENEON(dst []uint64, src []byte)

// pickKernels selects the NEON add/sub/decode-add kernels. ASIMD is
// part of the base A64 ISA, so the capability check never fails on real
// hardware; it exists so EYEWNDER_NOSIMD-style tooling sees one shape
// everywhere.
func pickKernels() {
	if cpu.HasNEON {
		selAdd, selSub, selAddLE = addNEON, subNEON, addLENEON
		kernelName = "neon"
	} else {
		activeNote = "no neon"
	}
}
