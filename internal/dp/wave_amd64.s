//go:build !race

#include "textflag.h"

// The row above rotated one cell right, each half's prefix carried into
// the upper half, and the gap counts of the upper half's ramp and of the
// carry's.
DATA waveConst<>+0(SB)/4, $7
DATA waveConst<>+4(SB)/4, $0
DATA waveConst<>+8(SB)/4, $1
DATA waveConst<>+12(SB)/4, $2
DATA waveConst<>+16(SB)/4, $3
DATA waveConst<>+20(SB)/4, $4
DATA waveConst<>+24(SB)/4, $5
DATA waveConst<>+28(SB)/4, $6
DATA waveConst<>+32(SB)/4, $0
DATA waveConst<>+36(SB)/4, $1
DATA waveConst<>+40(SB)/4, $2
DATA waveConst<>+44(SB)/4, $3
DATA waveConst<>+48(SB)/4, $3
DATA waveConst<>+52(SB)/4, $3
DATA waveConst<>+56(SB)/4, $3
DATA waveConst<>+60(SB)/4, $3
DATA waveConst<>+64(SB)/4, $0
DATA waveConst<>+68(SB)/4, $0
DATA waveConst<>+72(SB)/4, $0
DATA waveConst<>+76(SB)/4, $0
DATA waveConst<>+80(SB)/4, $1
DATA waveConst<>+84(SB)/4, $2
DATA waveConst<>+88(SB)/4, $3
DATA waveConst<>+92(SB)/4, $4
DATA waveConst<>+96(SB)/4, $1
DATA waveConst<>+100(SB)/4, $2
DATA waveConst<>+104(SB)/4, $3
DATA waveConst<>+108(SB)/4, $4
DATA waveConst<>+112(SB)/4, $5
DATA waveConst<>+116(SB)/4, $6
DATA waveConst<>+120(SB)/4, $7
DATA waveConst<>+124(SB)/4, $8
GLOBL waveConst<>(SB), RODATA|NOPTR, $128

// func waveAVX2(out, north *int32, b *byte, n int, a byte, west, diag, match, mismatch, gap, flip int32)
//
// The wave scan over n cells, n a positive multiple of 8, eight at a time:
// t from the row above and the row above one cell back (the first eight's
// lane 0 the diagonal), then o's prefix max within the eight in three
// shift-and-max steps (one cell and two within each half, then the lower
// half's last into the upper half), each shift adding its gaps, and last
// the carry, o[-1] broadcast, plus 1..8 gaps. A shift repeats a lane's own
// cell where nothing lies before it, which gap <= 0 leaves below the cell.
// The carry of the next eight is o[7] broadcast. VPADDD wraps as Go's int32
// + does.
TEXT ·waveAVX2(SB), NOSPLIT, $0-60
	MOVQ         out+0(FP), DI
	MOVQ         north+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         n+24(FP), CX
	MOVBLZX      a+32(FP), AX
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11
	MOVL         flip+56(FP), AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	MOVL         west+36(FP), AX
	VMOVD        AX, X6
	VPBROADCASTD X6, Y6
	VPXOR        Y10, Y6, Y6                 // the carry, o[-1]
	MOVL         match+44(FP), AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	MOVL         mismatch+48(FP), AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	VPSUBD       Y13, Y12, Y12               // match - mismatch, wrapping
	MOVL         gap+52(FP), AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	VPADDD       Y14, Y14, Y15               // 2 gaps
	VPMULLD      waveConst<>+64(SB), Y14, Y1 // 0, 0, 0, 0, 1..4 gaps
	VPMULLD      waveConst<>+96(SB), Y14, Y2 // 1..8 gaps
	VMOVDQU      waveConst<>+32(SB), Y8
	VPBROADCASTD waveConst<>+0(SB), Y9
	MOVL         diag+40(FP), AX
	VMOVD        AX, X3
	VMOVDQU      (SI), Y0
	VMOVDQU      waveConst<>+0(SB), Y7
	VPERMD       Y0, Y7, Y7
	VPBLENDD     $1, Y3, Y7, Y3
	VPXOR        Y10, Y3, Y3                 // the first eight's nw
	XORQ         AX, AX
	JMP          first
	PCALIGN      $32 // the loop's alignment does not move with the function's

loop:
	VMOVDQU -4(SI)(AX*4), Y3
	VPXOR   Y10, Y3, Y3 // nw, the row above one cell back

first:
	VMOVDQU   (SI)(AX*4), Y0
	VPXOR     Y10, Y0, Y0         // north
	VPMOVZXBD (DX)(AX*1), Y5
	VPCMPEQD  Y11, Y5, Y5
	VPAND     Y12, Y5, Y5
	VPADDD    Y13, Y5, Y5         // match or mismatch
	VPADDD    Y3, Y5, Y5
	VPADDD    Y14, Y0, Y0
	VPMAXSD   Y5, Y0, Y4          // t
	VPSHUFD   $0x90, Y4, Y5       // one cell on, within each half
	VPADDD    Y14, Y5, Y5
	VPMAXSD   Y5, Y4, Y4
	VPSHUFD   $0x44, Y4, Y5       // two cells on, within each half
	VPADDD    Y15, Y5, Y5
	VPMAXSD   Y5, Y4, Y4
	VPERMD    Y4, Y8, Y5          // the lower half's last into the upper
	VPADDD    Y1, Y5, Y5
	VPMAXSD   Y5, Y4, Y4
	VPADDD    Y2, Y6, Y5          // the carry
	VPMAXSD   Y5, Y4, Y4          // o
	VPERMD    Y4, Y9, Y6
	VPXOR     Y10, Y4, Y4
	VMOVDQU   Y4, (DI)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLT       loop
	VZEROUPPER
	RET
