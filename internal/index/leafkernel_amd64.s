#include "go_asm.h"
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

// laneIndex is 0..7, one 32-bit lane each: a tail group's active lanes
// are those below its length.
DATA laneIndex<>+0(SB)/4, $0
DATA laneIndex<>+4(SB)/4, $1
DATA laneIndex<>+8(SB)/4, $2
DATA laneIndex<>+12(SB)/4, $3
DATA laneIndex<>+16(SB)/4, $4
DATA laneIndex<>+20(SB)/4, $5
DATA laneIndex<>+24(SB)/4, $6
DATA laneIndex<>+28(SB)/4, $7
GLOBL laneIndex<>(SB), RODATA|NOPTR, $32

// func selectAVX2(sel *[scanChunk]uint16, n int, rows unsafe.Pointer, stride int, passes []leafPass) int
//
// Every pass of the table, in order: the first over the row indexes 0..n-1
// (·rowIndexes), each later one over the k kept so far, compacted in place
// in sel. A pass takes its row indexes eight at a time: offsets = index ×
// stride (on the first pass, whose indexes run in order, lane × stride
// plus 8 × stride a group); gather the 4-byte codes at rows + off + offset
// and cut them to width; gather the mask's 32-bit words code>>5, masked to
// the words the mask has, so a code past the mask reads 0; shift each
// lane's word left by 31 - code&31 (~code & 31), bringing bit code&31 to
// its sign, and take the 8 signs as the keep mask; shuffle the kept
// indexes to the front through compactTable, store 16 bytes at sel[kept]
// and advance kept by the mask's population count. The last partial group
// runs the same steps with both gathers masked to its active lanes, so the
// indexes past the pass's length are neither read nor kept: an inactive
// lane gathers nothing and keeps its zero. A pass that keeps nothing ends
// the routine; the table is never empty. Every vector instruction is
// VEX-encoded and VZEROUPPER ends the routine: a legacy SSE instruction
// while the upper YMM halves are dirty costs a state transition, hundreds
// of ns on some CPUs.
//
// Registers: DI sel, SI the pass's read cursor (the first pass's is
// ·rowIndexes, a later one's DI), CX its full groups, DX its tail length,
// R8 rows + off, R9 the mask's words, R10 compactTable, R11 the pass table
// entry, R12 the passes left, R13 the pass's length, AX kept; Y1 stride,
// Y2 width, Y3 the mask's 32-bit words, Y4 31, Y13 laneIndex, and on the
// first pass Y7 the group's offsets and Y15 8 × stride.
TEXT ·selectAVX2(SB), NOSPLIT, $0-64
	MOVQ sel+0(FP), DI
	MOVQ n+8(FP), R13
	MOVQ stride+24(FP), AX
	VMOVD AX, X1
	VPBROADCASTD X1, Y1
	MOVL $31, AX
	VMOVD AX, X4
	VPBROADCASTD X4, Y4
	VMOVDQU laneIndex<>(SB), Y13
	LEAQ ·compactTable(SB), R10
	MOVQ passes_base+32(FP), R11
	MOVQ passes_len+40(FP), R12
	LEAQ ·rowIndexes(SB), SI
	MOVQ R13, AX

pass:
	MOVQ rows+16(FP), R8
	ADDQ leafPass_off(R11), R8
	MOVL leafPass_width(R11), AX
	VMOVD AX, X2
	VPBROADCASTD X2, Y2
	MOVQ leafPass_mask+0(R11), R9
	MOVQ leafPass_mask+8(R11), AX
	SHLQ $1, AX
	VMOVD AX, X3
	VPBROADCASTD X3, Y3
	XORQ AX, AX
	MOVQ R13, CX
	MOVQ R13, DX
	ANDQ $7, DX
	SHRQ $3, CX
	CMPQ SI, DI
	JEQ  groups

	// The first pass: its indexes run in order, so its offsets start at
	// lane × stride and advance by 8 × stride a group.
	VPMULLD Y1, Y13, Y7
	VPSLLD  $3, Y1, Y15
	TESTQ   CX, CX
	JZ      tail

first:
	VMOVDQU     (SI), X6
	VPCMPEQD    Y8, Y8, Y8
	VPXOR       Y9, Y9, Y9
	VPGATHERDD  Y8, (R8)(Y7*1), Y9
	VPADDD      Y15, Y7, Y7
	VPAND       Y2, Y9, Y9
	VPSRLD      $5, Y9, Y10
	VPCMPGTD    Y10, Y3, Y11
	VPXOR       Y12, Y12, Y12
	VPGATHERDD  Y11, (R9)(Y10*4), Y12
	VPANDN      Y4, Y9, Y9
	VPSLLVD     Y9, Y12, Y12
	VMOVMSKPS   Y12, BX
	MOVQ        BX, R13
	SHLQ        $4, R13
	VPSHUFB     (R10)(R13*1), X6, X6
	VMOVDQU     X6, (DI)(AX*2)
	POPCNTL     BX, BX
	ADDQ        BX, AX
	ADDQ        $16, SI
	DECQ        CX
	JNZ         first
	JMP         tail

// A later pass: offsets = the index read from sel × stride.
groups:
	TESTQ CX, CX
	JZ    tail

group:
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
	VPANDN      Y4, Y9, Y9
	VPSLLVD     Y9, Y12, Y12
	VMOVMSKPS   Y12, BX
	MOVQ        BX, R13
	SHLQ        $4, R13
	VPSHUFB     (R10)(R13*1), X6, X6
	VMOVDQU     X6, (DI)(AX*2)
	POPCNTL     BX, BX
	ADDQ        BX, AX
	ADDQ        $16, SI
	DECQ        CX
	JNZ         group

// The last k mod 8 indexes: Y14 marks the active lanes, and both gathers
// are masked to them.
tail:
	TESTQ       DX, DX
	JZ          next
	VMOVD       DX, X14
	VPBROADCASTD X14, Y14
	VPCMPGTD    Y13, Y14, Y14
	VMOVDQU     (SI), X6
	VPMOVZXWD   X6, Y5
	VPMULLD     Y1, Y5, Y7
	VMOVDQU     Y14, Y8
	VPXOR       Y9, Y9, Y9
	VPGATHERDD  Y8, (R8)(Y7*1), Y9
	VPAND       Y2, Y9, Y9
	VPSRLD      $5, Y9, Y10
	VPCMPGTD    Y10, Y3, Y11
	VPAND       Y14, Y11, Y11
	VPXOR       Y12, Y12, Y12
	VPGATHERDD  Y11, (R9)(Y10*4), Y12
	VPANDN      Y4, Y9, Y9
	VPSLLVD     Y9, Y12, Y12
	VMOVMSKPS   Y12, BX
	MOVQ        BX, R13
	SHLQ        $4, R13
	VPSHUFB     (R10)(R13*1), X6, X6
	VMOVDQU     X6, (DI)(AX*2)
	POPCNTL     BX, BX
	ADDQ        BX, AX

next:
	MOVQ  AX, R13
	MOVQ  DI, SI
	ADDQ  $leafPass__size, R11
	TESTQ AX, AX
	JZ    done
	DECQ  R12
	JNZ   pass

done:
	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET
