//go:build amd64 && !purego

#include "textflag.h"

// AVX2 micro-kernels for CholeskyInto, SyrkTInto, AccumulateScaled and
// AccumulateProduct at float64. Every kernel vectorizes across independent
// outputs, never along a reduction: each lane replays one entry's scalar
// sequence (a float64 accumulator, ascending k, a multiply then a separate
// subtract or add, one store), so the results are the Go loops' bit for
// bit. No fused multiply-add appears here, and scalar work uses VEX forms
// only (a legacy-SSE instruction after 256-bit work pays a
// state-transition penalty).

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   noavx2

	// Leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX).
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   noavx2

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state.
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   noavx2

	// Leaf 7, subleaf 0: EBX bit 5 (AVX2).
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x20, BX
	JZ    noavx2
	MOVB  $1, ret+0(FP)

noavx2:
	RET

// CHOL_K4 is one k step of a 4-row tile: Y4 = the lane vector
// L[j0..j0+3][k] (row k of the transposed copy, at CX), and for each row r
// of the tile Yr -= L[i+r][k] * Y4, with L[i+r][k] at R14 + r*stride. Y5
// is the only temporary (the panel keeps its constants in X6..X15).
#define CHOL_K4 \
	VMOVUPD      (CX), Y4;         \
	VBROADCASTSD (R14), Y5;        \
	VMULPD       Y4, Y5, Y5;       \
	VSUBPD       Y5, Y0, Y0;       \
	VBROADCASTSD (R14)(R10*1), Y5; \
	VMULPD       Y4, Y5, Y5;       \
	VSUBPD       Y5, Y1, Y1;       \
	VBROADCASTSD (R14)(R10*2), Y5; \
	VMULPD       Y4, Y5, Y5;       \
	VSUBPD       Y5, Y2, Y2;       \
	VBROADCASTSD (R14)(R11*1), Y5; \
	VMULPD       Y4, Y5, Y5;       \
	VSUBPD       Y5, Y3, Y3

// func cholTileAVX2(l, a *float64, n, j0 int)
//
// Lane sums of the diagonal tile: for r, c in 0..3,
// l[j0+r][j0+c] = a[j0+r][j0+c] - Σ_{k<j0} L[j0+r][k]·L[j0+c][k], with the
// lane operand read from the transposed copy l[k][j0+c].
TEXT ·cholTileAVX2(SB), NOSPLIT, $0-32
	MOVQ l+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ j0+24(FP), R9
	MOVQ R8, R10
	SHLQ $3, R10              // R10 = row stride in bytes
	LEAQ (R10)(R10*2), R11    // R11 = 3 * stride

	MOVQ R9, AX
	IMULQ R8, AX
	LEAQ (DI)(AX*8), R14      // R14 = &l[j0][0]
	LEAQ (SI)(AX*8), R13
	LEAQ (R13)(R9*8), R13     // R13 = &a[j0][j0]
	VMOVUPD (R13), Y0
	VMOVUPD (R13)(R10*1), Y1
	VMOVUPD (R13)(R10*2), Y2
	VMOVUPD (R13)(R11*1), Y3
	LEAQ (DI)(R9*8), CX       // CX = &l[0][j0]
	MOVQ R9, AX
	TESTQ AX, AX
	JZ   tilestore

tilek:
	CHOL_K4
	ADDQ $8, R14
	ADDQ R10, CX
	DECQ AX
	JNZ  tilek

tilestore:
	MOVQ R14, R13             // R13 = &l[j0][j0]
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, (R13)(R10*1)
	VMOVUPD Y2, (R13)(R10*2)
	VMOVUPD Y3, (R13)(R11*1)
	VZEROUPPER
	RET

// CHOL_FINISH completes one row below the diagonal block in scalar, in the
// scalar column loop's order. On entry R13 = &l[i][j0] holds the four lane
// sums; X6..X15 hold the finished diagonal block (X6 = L[j0][j0],
// X7 = L[j0+1][j0], X8 = L[j0+1][j0+1], X9..X11 = L[j0+2][j0..j0+2],
// X12..X15 = L[j0+3][j0..j0+3]). Each L[i][j0+c] is stored in place and at
// its transposed position l[j0+c][i], at BX + c*stride.
#define CHOL_FINISH \
	VMOVSD (R13), X0;          \
	VDIVSD X6, X0, X0;         \
	VMOVSD X0, (R13);          \
	VMOVSD X0, (BX);           \
	VMOVSD 8(R13), X1;         \
	VMULSD X7, X0, X4;         \
	VSUBSD X4, X1, X1;         \
	VDIVSD X8, X1, X1;         \
	VMOVSD X1, 8(R13);         \
	VMOVSD X1, (BX)(R10*1);    \
	VMOVSD 16(R13), X2;        \
	VMULSD X9, X0, X4;         \
	VSUBSD X4, X2, X2;         \
	VMULSD X10, X1, X4;        \
	VSUBSD X4, X2, X2;         \
	VDIVSD X11, X2, X2;        \
	VMOVSD X2, 16(R13);        \
	VMOVSD X2, (BX)(R10*2);    \
	VMOVSD 24(R13), X3;        \
	VMULSD X12, X0, X4;        \
	VSUBSD X4, X3, X3;         \
	VMULSD X13, X1, X4;        \
	VSUBSD X4, X3, X3;         \
	VMULSD X14, X2, X4;        \
	VSUBSD X4, X3, X3;         \
	VDIVSD X15, X3, X3;        \
	VMOVSD X3, 24(R13);        \
	VMOVSD X3, (BX)(R11*1)

// func cholPanelAVX2(l, a *float64, n, j0 int)
//
// Finishes columns j0..j0+3 of every row i >= j0+4, given the finished
// diagonal block and the transposed copy of columns < j0: four rows per
// sweep over k, then the remaining rows one at a time.
TEXT ·cholPanelAVX2(SB), NOSPLIT, $0-32
	MOVQ l+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ j0+24(FP), R9
	MOVQ R8, R10
	SHLQ $3, R10              // R10 = row stride in bytes
	LEAQ (R10)(R10*2), R11    // R11 = 3 * stride

	// The finished diagonal block, from DX = &l[j0][j0].
	MOVQ R9, AX
	IMULQ R8, AX
	ADDQ R9, AX
	LEAQ (DI)(AX*8), DX
	VMOVSD (DX), X6
	VMOVSD (DX)(R10*1), X7
	VMOVSD 8(DX)(R10*1), X8
	VMOVSD (DX)(R10*2), X9
	VMOVSD 8(DX)(R10*2), X10
	VMOVSD 16(DX)(R10*2), X11
	VMOVSD (DX)(R11*1), X12
	VMOVSD 8(DX)(R11*1), X13
	VMOVSD 16(DX)(R11*1), X14
	VMOVSD 24(DX)(R11*1), X15

	LEAQ 4(R9), R12           // R12 = i

panel4:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  panel1
	MOVQ R12, AX
	IMULQ R8, AX
	LEAQ (DI)(AX*8), R14      // R14 = &l[i][0]
	LEAQ (SI)(AX*8), R13
	LEAQ (R13)(R9*8), R13     // R13 = &a[i][j0]
	VMOVUPD (R13), Y0
	VMOVUPD (R13)(R10*1), Y1
	VMOVUPD (R13)(R10*2), Y2
	VMOVUPD (R13)(R11*1), Y3
	LEAQ (DI)(R9*8), CX       // CX = &l[0][j0]
	MOVQ R9, AX
	TESTQ AX, AX
	JZ   panel4fin

panel4k:
	CHOL_K4
	ADDQ $8, R14
	ADDQ R10, CX
	DECQ AX
	JNZ  panel4k

panel4fin:
	// R14 = &l[i][j0] now: store the lane sums in place and finish.
	MOVQ R14, R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, (R13)(R10*1)
	VMOVUPD Y2, (R13)(R10*2)
	VMOVUPD Y3, (R13)(R11*1)
	MOVQ R12, AX
	SUBQ R9, AX
	LEAQ (DX)(AX*8), BX       // BX = &l[j0][i]
	CHOL_FINISH
	ADDQ R10, R13
	ADDQ $8, BX
	CHOL_FINISH
	ADDQ R10, R13
	ADDQ $8, BX
	CHOL_FINISH
	ADDQ R10, R13
	ADDQ $8, BX
	CHOL_FINISH
	ADDQ $4, R12
	JMP  panel4

panel1:
	CMPQ R12, R8
	JGE  paneldone
	MOVQ R12, AX
	IMULQ R8, AX
	LEAQ (DI)(AX*8), R14      // R14 = &l[i][0]
	LEAQ (SI)(AX*8), R13
	VMOVUPD (R13)(R9*8), Y0   // a[i][j0..j0+3]
	LEAQ (DI)(R9*8), CX       // CX = &l[0][j0]
	MOVQ R9, AX
	TESTQ AX, AX
	JZ   panel1fin

panel1k:
	VMOVUPD      (CX), Y4
	VBROADCASTSD (R14), Y5
	VMULPD       Y4, Y5, Y5
	VSUBPD       Y5, Y0, Y0
	ADDQ $8, R14
	ADDQ R10, CX
	DECQ AX
	JNZ  panel1k

panel1fin:
	MOVQ R14, R13
	VMOVUPD Y0, (R13)
	MOVQ R12, AX
	SUBQ R9, AX
	LEAQ (DX)(AX*8), BX       // BX = &l[j0][i]
	CHOL_FINISH
	INCQ R12
	JMP  panel1

paneldone:
	VZEROUPPER
	RET

// func syrkTRowAVX2(d, row *float64, c int)
//
// The rank-1 update of SyrkTInto for one input row: for every i with
// row[i] != 0, d[i][j] += row[i] * row[j] for j >= i (d is c×c). Lanes run
// across j with row[i] broadcast, four at a time, then a scalar tail.
TEXT ·syrkTRowAVX2(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ row+8(FP), SI
	MOVQ c+16(FP), R8
	XORQ R12, R12             // R12 = i

syrki:
	CMPQ R12, R8
	JGE  syrkdone
	// Skip row[i] == ±0, exactly like the Go loop's vi == 0 (NaN is not
	// skipped): the bits without the sign are zero.
	MOVQ (SI)(R12*8), AX
	SHLQ $1, AX
	JZ   syrknext
	VBROADCASTSD (SI)(R12*8), Y0
	MOVQ R12, AX
	IMULQ R8, AX
	ADDQ R12, AX
	LEAQ (DI)(AX*8), BX       // BX = &d[i][i]
	LEAQ (SI)(R12*8), CX      // CX = &row[i]
	MOVQ R8, DX
	SUBQ R12, DX              // DX = c - i entries

syrk4:
	CMPQ DX, $4
	JLT  syrk1
	VMOVUPD (CX), Y1
	VMULPD  Y1, Y0, Y1
	VMOVUPD (BX), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (BX)
	ADDQ $32, CX
	ADDQ $32, BX
	SUBQ $4, DX
	JMP  syrk4

syrk1:
	TESTQ DX, DX
	JZ    syrknext
	VMOVSD (CX), X1
	VMULSD X1, X0, X1
	VMOVSD (BX), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (BX)
	ADDQ $8, CX
	ADDQ $8, BX
	DECQ DX
	JMP  syrk1

syrknext:
	INCQ R12
	JMP  syrki

syrkdone:
	VZEROUPPER
	RET

// func accScaledAVX2(acc, src *float64, w float64, n int)
//
// The sum combiner's step of AccumulateScaled: acc[j] += w * src[j] for
// j < n, with w broadcast. Each entry is a VMULPD then a separate VADDPD,
// the Go loop's two roundings; eight entries per iteration, then four,
// then a scalar tail.
TEXT ·accScaledAVX2(SB), NOSPLIT, $0-32
	MOVQ         acc+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSD w+16(FP), Y0
	MOVQ         n+24(FP), CX

scaled8:
	CMPQ    CX, $8
	JLT     scaled4
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     scaled8

scaled4:
	CMPQ    CX, $4
	JLT     scaled1
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

scaled1:
	TESTQ  CX, CX
	JZ     scaleddone
	VMOVSD (SI), X1
	VMULSD X1, X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    scaled1

scaleddone:
	VZEROUPPER
	RET

// func accProductAVX2(acc, src *float64, n int)
//
// The product combiner's step of AccumulateProduct: acc[j] *= src[j] for
// j < n, one VMULPD per four entries, in the same blocking as
// accScaledAVX2.
TEXT ·accProductAVX2(SB), NOSPLIT, $0-24
	MOVQ acc+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

product8:
	CMPQ    CX, $8
	JLT     product4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMULPD  (SI), Y1, Y1
	VMULPD  32(SI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     product8

product4:
	CMPQ    CX, $4
	JLT     product1
	VMOVUPD (DI), Y1
	VMULPD  (SI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

product1:
	TESTQ  CX, CX
	JZ     productdone
	VMOVSD (DI), X1
	VMULSD (SI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    product1

productdone:
	VZEROUPPER
	RET
