//go:build !race

#include "textflag.h"

// func maxPlusAVX2(out, left, cells *int32, w, h, stride int)
//
// For each pass of four source rows x..x+3, broadcast left[x..x+3] and, eight
// cells t at a time, out[t] = max(out[t], left[x+r] + cells[(x+r)*stride+t]);
// the rows left over go one to a pass. VPADDD wraps as Go's int32 + does.
TEXT ·maxPlusAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ left+8(FP), SI
	MOVQ cells+16(FP), DX
	MOVQ w+24(FP), CX
	MOVQ h+32(FP), BX
	MOVQ stride+40(FP), R8
	SHLQ $2, CX             // width in bytes
	SHLQ $2, R8             // row stride in bytes

rows4:
	CMPQ BX, $4
	JLT  rows1
	VPBROADCASTD 0(SI), Y0
	VPBROADCASTD 4(SI), Y1
	VPBROADCASTD 8(SI), Y2
	VPBROADCASTD 12(SI), Y3
	MOVQ DX, R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	XORQ AX, AX

cols4:
	VPADDD  (R9)(AX*1), Y0, Y4
	VPADDD  (R10)(AX*1), Y1, Y5
	VPADDD  (R11)(AX*1), Y2, Y6
	VPADDD  (R12)(AX*1), Y3, Y7
	VPMAXSD Y5, Y4, Y4
	VPMAXSD Y7, Y6, Y6
	VPMAXSD (DI)(AX*1), Y4, Y4
	VPMAXSD Y6, Y4, Y4
	VMOVDQU Y4, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     cols4
	ADDQ    $16, SI
	LEAQ    (R12)(R8*1), DX
	SUBQ    $4, BX
	JMP     rows4

rows1:
	TESTQ BX, BX
	JZ    done
	VPBROADCASTD (SI), Y0
	XORQ  AX, AX

cols1:
	VPADDD  (DX)(AX*1), Y0, Y4
	VPMAXSD (DI)(AX*1), Y4, Y4
	VMOVDQU Y4, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     cols1
	ADDQ    $4, SI
	ADDQ    R8, DX
	DECQ    BX
	JMP     rows1

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
