#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func selectAVX2(sel, src *[256]uint16, n int, col unsafe.Pointer, stride int, width uint32, mask bitmap.Dense) int
//
// Per group of 8 row indexes: offsets = index × stride; gather the 4-byte
// codes at col + offset and cut them to width; gather the mask's 32-bit
// words code>>5, masked to the words the mask has, so a code past the mask
// reads 0; shift bit code&31 to each lane's sign and take the 8 signs as the
// keep mask; shuffle the kept indexes to the front through compactTable,
// store 16 bytes at sel[kept] and advance kept by the mask's population
// count. Every vector instruction is VEX-encoded and VZEROUPPER ends the
// routine: a legacy SSE instruction while the upper YMM halves are dirty
// costs a state transition, hundreds of ns on some CPUs.
TEXT ·selectAVX2(SB), NOSPLIT, $0-80
	MOVQ sel+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ col+24(FP), R8
	MOVQ stride+32(FP), AX
	VMOVD AX, X1
	VPBROADCASTD X1, Y1
	MOVL width+40(FP), AX
	VMOVD AX, X2
	VPBROADCASTD X2, Y2
	MOVQ mask_base+48(FP), R9
	MOVQ mask_len+56(FP), AX
	SHLQ $1, AX
	VMOVD AX, X3
	VPBROADCASTD X3, Y3
	MOVL $31, AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	LEAQ ·compactTable(SB), R10
	XORQ AX, AX
	SHRQ $3, CX
	JZ   done

loop:
	VMOVDQU     (SI), X6
	VPMOVZXWD   X6, Y5
	VPMULLD     Y1, Y5, Y7
	VPCMPEQD    Y8, Y8, Y8
	VPXOR       Y9, Y9, Y9
	VPGATHERDD  Y8, (R8)(Y7*1), Y9
	VPAND       Y2, Y9, Y9
	VPSRLD      $5, Y9, Y10
	VPCMPGTD    Y10, Y3, Y11
	VPXOR       Y12, Y12, Y12
	VPGATHERDD  Y11, (R9)(Y10*4), Y12
	VPAND       Y4, Y9, Y9
	VPSRLVD     Y9, Y12, Y12
	VPSLLD      $31, Y12, Y12
	VMOVMSKPS   Y12, BX
	MOVQ        BX, DX
	SHLQ        $4, DX
	VPSHUFB     (R10)(DX*1), X6, X6
	VMOVDQU     X6, (DI)(AX*2)
	POPCNTL     BX, BX
	ADDQ        BX, AX
	ADDQ        $16, SI
	DECQ        CX
	JNZ         loop

done:
	VZEROUPPER
	MOVQ AX, ret+72(FP)
	RET
