//go:build !purego

#include "textflag.h"

// Split-nibble GF(2^8) multiply, 32 bytes per step: each input byte x is
// split into its low and high nibble, VPSHUFB looks both up in the
// coefficient's 16-entry product tables (broadcast to both 128-bit
// lanes), and the two products XOR to c·x. tbl points at the 32-byte
// row of gfNib: low-nibble products, then high-nibble products.

// func mulAVX2(tbl *[32]byte, in, out []byte)
TEXT ·mulAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ in_base+8(FP), SI
	MOVQ in_len+16(FP), CX
	MOVQ out_base+32(FP), DI
	SHRQ $5, CX
	JZ   mulDone
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	MOVQ $0x0f, BX
	MOVQ BX, X2
	VPBROADCASTB X2, Y2

mulLoop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     mulLoop
	VZEROUPPER

mulDone:
	RET

// func mulAddAVX2(tbl *[32]byte, in, out []byte)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ in_base+8(FP), SI
	MOVQ in_len+16(FP), CX
	MOVQ out_base+32(FP), DI
	SHRQ $5, CX
	JZ   addDone
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	MOVQ $0x0f, BX
	MOVQ BX, X2
	VPBROADCASTB X2, Y2

addLoop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     addLoop
	VZEROUPPER

addDone:
	RET

// func cpuHasAVX2() bool
//
// CPUID leaf 1 must report AVX and OSXSAVE, XCR0 must show the OS saves
// XMM and YMM state, and CPUID leaf 7 must report AVX2.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   noAVX2
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27 | 1<<28), CX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  noAVX2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noAVX2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  noAVX2
	MOVB $1, ret+0(FP)

noAVX2:
	RET
