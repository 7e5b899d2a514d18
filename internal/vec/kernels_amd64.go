//go:build amd64 && !purego

package vec

import "eyewnder/internal/vec/cpu"

// addAVX2 adds src into dst element-wise modulo 2⁶⁴, 16 words (four
// 256-bit lanes) per iteration with a scalar tail. Implemented in
// kernels_amd64.s; the wrapper layer guarantees len(dst) == len(src).
//
//go:noescape
func addAVX2(dst, src []uint64)

// subAVX2 subtracts src from dst element-wise modulo 2⁶⁴.
//
//go:noescape
func subAVX2(dst, src []uint64)

// addLEAVX2 adds the little-endian words of src into dst: addAVX2 with
// a byte source of any alignment. x86 is little-endian, so an unaligned
// 256-bit load of the raw bytes already is four decoded words. The
// wrapper guarantees len(src) == 8*len(dst); the kernel reads the
// length from dst.
//
//go:noescape
func addLEAVX2(dst []uint64, src []byte)

// pickKernels selects the AVX2 add/sub/decode-add kernels when the CPU
// and OS support them (VPADDQ/VPSUBQ need AVX2 and OS-enabled YMM
// state).
func pickKernels() {
	if cpu.HasAVX2 {
		selAdd, selSub, selAddLE = addAVX2, subAVX2, addLEAVX2
		kernelName = "avx2"
	} else {
		activeNote = "no avx2"
	}
}
