//go:build !purego

#include "textflag.h"

// The u64 wraparound add/sub kernels behind vec.Add/vec.Sub (and the
// per-stripe bodies of vec.Striped), and the decode-add behind
// vec.AddLE. All process 16 uint64s — four 256-bit YMM lanes — per
// main-loop iteration with unaligned loads (stripe bounds and WAL record
// bodies are arbitrary), then finish the tail scalarly. The wrappers
// guarantee matching lengths; add/sub read the length from the src slice
// header, decode-add from dst.

// func addAVX2(dst, src []uint64)
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX

loop16:
	CMPQ CX, $16
	JL   tail
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPADDQ  (DI), Y0, Y0
	VPADDQ  32(DI), Y1, Y1
	VPADDQ  64(DI), Y2, Y2
	VPADDQ  96(DI), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     loop16

tail:
	TESTQ CX, CX
	JZ    done

tailloop:
	MOVQ (SI), AX
	ADDQ AX, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  tailloop

done:
	VZEROUPPER
	RET

// func subAVX2(dst, src []uint64)
TEXT ·subAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX

loop16:
	CMPQ CX, $16
	JL   tail
	VMOVDQU (DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VPSUBQ  (SI), Y0, Y0
	VPSUBQ  32(SI), Y1, Y1
	VPSUBQ  64(SI), Y2, Y2
	VPSUBQ  96(SI), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     loop16

tail:
	TESTQ CX, CX
	JZ    done

tailloop:
	MOVQ (SI), AX
	SUBQ AX, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  tailloop

done:
	VZEROUPPER
	RET

// func addLEAVX2(dst []uint64, src []byte)
//
// addAVX2 over a byte source: the same loads (VMOVDQU and the scalar
// tail tolerate any alignment), with the word count taken from dst.
TEXT ·addLEAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI

loop16:
	CMPQ CX, $16
	JL   tail
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VPADDQ  (DI), Y0, Y0
	VPADDQ  32(DI), Y1, Y1
	VPADDQ  64(DI), Y2, Y2
	VPADDQ  96(DI), Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     loop16

tail:
	TESTQ CX, CX
	JZ    done

tailloop:
	MOVQ (SI), AX
	ADDQ AX, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  tailloop

done:
	VZEROUPPER
	RET
