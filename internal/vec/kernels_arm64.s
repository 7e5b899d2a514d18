//go:build !purego

#include "textflag.h"

// NEON u64 wraparound add/sub kernels and the AddLE decode-add: 8
// uint64s — four 128-bit V registers — per main-loop iteration, scalar
// tail. Loads/stores are unaligned-safe (stripe bounds and WAL record
// bodies are arbitrary). The wrappers guarantee matching lengths;
// add/sub read the length from src, decode-add from dst.

// func addNEON(dst, src []uint64)
TEXT ·addNEON(SB), NOSPLIT, $0-48
	MOVD dst_base+0(FP), R0
	MOVD src_base+24(FP), R1
	MOVD src_len+32(FP), R2

loop8:
	CMP  $8, R2
	BLT  tail
	VLD1 (R0), [V0.D2, V1.D2, V2.D2, V3.D2]
	VLD1.P 64(R1), [V4.D2, V5.D2, V6.D2, V7.D2]
	VADD V4.D2, V0.D2, V0.D2
	VADD V5.D2, V1.D2, V1.D2
	VADD V6.D2, V2.D2, V2.D2
	VADD V7.D2, V3.D2, V3.D2
	VST1.P [V0.D2, V1.D2, V2.D2, V3.D2], 64(R0)
	SUB  $8, R2
	B    loop8

tail:
	CBZ  R2, done
	MOVD (R1), R3
	MOVD (R0), R4
	ADD  R3, R4, R4
	MOVD R4, (R0)
	ADD  $8, R0
	ADD  $8, R1
	SUB  $1, R2
	B    tail

done:
	RET

// func subNEON(dst, src []uint64)
TEXT ·subNEON(SB), NOSPLIT, $0-48
	MOVD dst_base+0(FP), R0
	MOVD src_base+24(FP), R1
	MOVD src_len+32(FP), R2

loop8:
	CMP  $8, R2
	BLT  tail
	VLD1 (R0), [V0.D2, V1.D2, V2.D2, V3.D2]
	VLD1.P 64(R1), [V4.D2, V5.D2, V6.D2, V7.D2]
	VSUB V4.D2, V0.D2, V0.D2
	VSUB V5.D2, V1.D2, V1.D2
	VSUB V6.D2, V2.D2, V2.D2
	VSUB V7.D2, V3.D2, V3.D2
	VST1.P [V0.D2, V1.D2, V2.D2, V3.D2], 64(R0)
	SUB  $8, R2
	B    loop8

tail:
	CBZ  R2, done
	MOVD (R1), R3
	MOVD (R0), R4
	SUB  R3, R4, R4
	MOVD R4, (R0)
	ADD  $8, R0
	ADD  $8, R1
	SUB  $1, R2
	B    tail

done:
	RET

// func addLENEON(dst []uint64, src []byte)
//
// addNEON over a byte source of any alignment, word count from dst.
TEXT ·addLENEON(SB), NOSPLIT, $0-48
	MOVD dst_base+0(FP), R0
	MOVD dst_len+8(FP), R2
	MOVD src_base+24(FP), R1

loop8:
	CMP  $8, R2
	BLT  tail
	VLD1 (R0), [V0.D2, V1.D2, V2.D2, V3.D2]
	VLD1.P 64(R1), [V4.D2, V5.D2, V6.D2, V7.D2]
	VADD V4.D2, V0.D2, V0.D2
	VADD V5.D2, V1.D2, V1.D2
	VADD V6.D2, V2.D2, V2.D2
	VADD V7.D2, V3.D2, V3.D2
	VST1.P [V0.D2, V1.D2, V2.D2, V3.D2], 64(R0)
	SUB  $8, R2
	B    loop8

tail:
	CBZ  R2, done
	MOVD (R1), R3
	MOVD (R0), R4
	ADD  R3, R4, R4
	MOVD R4, (R0)
	ADD  $8, R0
	ADD  $8, R1
	SUB  $1, R2
	B    tail

done:
	RET
