//go:build amd64 && !purego

#include "textflag.h"

// AVX2 micro-kernels for CholeskyInto, SyrkTInto, AccumulateScaled and
// AccumulateProduct at float64, and AVX-512 ones for CholeskyInto's
// eight-column blocks. Every kernel vectorizes across independent outputs,
// never along a reduction: each lane replays one entry's scalar sequence
// (a float64 accumulator, ascending k, a multiply then a separate subtract
// or add, one store), so the results are the Go loops' bit for bit. No
// fused multiply-add appears here, and scalar work uses VEX forms (EVEX
// for X16..X31) only: a legacy-SSE instruction after 256-bit work pays a
// state-transition penalty.

// func cpuFeatures() (avx2, avx512 bool)
//
// avx2: the CPU has AVX2 and the OS saves YMM state. avx512: AVX2 as
// well, AVX512F, and the OS saves the opmask and ZMM state too.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB  $0, avx2+0(FP)
	MOVB  $0, avx512+1(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   nosimd

	// Leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX).
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   nosimd

	// XCR0 bits 1 and 2: the OS saves XMM and YMM state. R8 keeps XCR0
	// for the AVX-512 test below.
	XORL  CX, CX
	XGETBV
	MOVL  AX, R8
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   nosimd

	// Leaf 7, subleaf 0: EBX bit 5 (AVX2).
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	MOVL  BX, R9
	ANDL  $0x20, BX
	JZ    nosimd
	MOVB  $1, avx2+0(FP)

	// EBX bit 16 (AVX512F), and XCR0 bits 5..7: the OS saves the opmask
	// registers, the upper halves of ZMM0..15 and ZMM16..31.
	ANDL  $0x10000, R9
	JZ    nosimd
	ANDL  $0xe6, R8
	CMPL  R8, $0xe6
	JNE   nosimd
	MOVB  $1, avx512+1(FP)

nosimd:
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

// CHOL_K8 is CHOL_K4 on eight columns: Z8 = the lane vector
// L[j0..j0+7][k] (row k of the transposed copy, at CX), and for each row r
// of a four-row sweep Zr -= L[i+r][k] * Z8, with L[i+r][k] at
// R14 + r*stride. Z9 is the only temporary.
#define CHOL_K8 \
	VMOVUPD      (CX), Z8;         \
	VBROADCASTSD (R14), Z9;        \
	VMULPD       Z8, Z9, Z9;       \
	VSUBPD       Z9, Z0, Z0;       \
	VBROADCASTSD (R14)(R10*1), Z9; \
	VMULPD       Z8, Z9, Z9;       \
	VSUBPD       Z9, Z1, Z1;       \
	VBROADCASTSD (R14)(R10*2), Z9; \
	VMULPD       Z8, Z9, Z9;       \
	VSUBPD       Z9, Z2, Z2;       \
	VBROADCASTSD (R14)(R11*1), Z9; \
	VMULPD       Z8, Z9, Z9;       \
	VSUBPD       Z9, Z3, Z3

// CHOL_K8_HIGH continues CHOL_K8 on rows 4..7 of an eight-row sweep, at
// BX + (r-4)*stride, into Z4..Z7, with the lane vector already in Z8.
#define CHOL_K8_HIGH \
	VBROADCASTSD (BX), Z9;         \
	VMULPD       Z8, Z9, Z9;       \
	VSUBPD       Z9, Z4, Z4;       \
	VBROADCASTSD (BX)(R10*1), Z9;  \
	VMULPD       Z8, Z9, Z9;       \
	VSUBPD       Z9, Z5, Z5;       \
	VBROADCASTSD (BX)(R10*2), Z9;  \
	VMULPD       Z8, Z9, Z9;       \
	VSUBPD       Z9, Z6, Z6;       \
	VBROADCASTSD (BX)(R11*1), Z9;  \
	VMULPD       Z8, Z9, Z9;       \
	VSUBPD       Z9, Z7, Z7

// CHOL_LOAD8 loads the eight-row sweep's starting values, a[i+r][j0..j0+7]
// from R13 = &a[i][j0], into Z0..Z7, and points R14 = &l[i][0] and
// BX = &l[i+4][0] at the rows' finished columns; AX = i*n on entry.
#define CHOL_LOAD8 \
	LEAQ    (DI)(AX*8), R14;       \
	LEAQ    (R14)(R10*4), BX;      \
	LEAQ    (SI)(AX*8), R13;       \
	LEAQ    (R13)(R9*8), R13;      \
	VMOVUPD (R13), Z0;             \
	VMOVUPD (R13)(R10*1), Z1;      \
	VMOVUPD (R13)(R10*2), Z2;      \
	VMOVUPD (R13)(R11*1), Z3;      \
	LEAQ    (R13)(R10*4), R13;     \
	VMOVUPD (R13), Z4;             \
	VMOVUPD (R13)(R10*1), Z5;      \
	VMOVUPD (R13)(R10*2), Z6;      \
	VMOVUPD (R13)(R11*1), Z7

// CHOL_STORE8 stores the eight rows' lane sums at R14 = &l[i][j0] and
// BX = &l[i+4][j0].
#define CHOL_STORE8 \
	VMOVUPD Z0, (R14);             \
	VMOVUPD Z1, (R14)(R10*1);      \
	VMOVUPD Z2, (R14)(R10*2);      \
	VMOVUPD Z3, (R14)(R11*1);      \
	VMOVUPD Z4, (BX);              \
	VMOVUPD Z5, (BX)(R10*1);       \
	VMOVUPD Z6, (BX)(R10*2);       \
	VMOVUPD Z7, (BX)(R11*1)

// The lane operand steps down the transposed copy by a whole row per k,
// a stride the hardware prefetchers do not follow, so the eight- and
// four-row loops prefetch both cache lines of the lane vector eight rows
// ahead.

// func cholTileAVX512(l, a *float64, n, j0 int)
//
// Lane sums of the diagonal 8×8 tile: for r, c in 0..7,
// l[j0+r][j0+c] = a[j0+r][j0+c] - Σ_{k<j0} L[j0+r][k]·L[j0+c][k], with the
// lane operand read from the transposed copy l[k][j0+c]: one eight-row
// sweep.
TEXT ·cholTileAVX512(SB), NOSPLIT, $0-32
	MOVQ l+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ j0+24(FP), R9
	MOVQ R8, R10
	SHLQ $3, R10              // R10 = row stride in bytes
	LEAQ (R10)(R10*2), R11    // R11 = 3 * stride
	MOVQ R9, AX
	IMULQ R8, AX
	CHOL_LOAD8
	LEAQ (DI)(R9*8), CX       // CX = &l[0][j0]
	MOVQ R9, AX
	TESTQ AX, AX
	JZ   tile8store

tile8k:
	CHOL_K8
	CHOL_K8_HIGH
	PREFETCHT0 (CX)(R10*8)
	PREFETCHT0 63(CX)(R10*8)
	ADDQ $8, R14
	ADDQ $8, BX
	ADDQ R10, CX
	DECQ AX
	JNZ  tile8k

tile8store:
	CHOL_STORE8
	VZEROUPPER
	RET

// CHOL8_FINISH completes one row below the diagonal block in scalar, in
// the scalar column loop's order. On entry R13 = &l[i][j0] holds the eight
// lane sums and CX = &l[j0][i]. The finished diagonal block L[j0+r][j0+c]
// (written Lrc) is held as set up by cholPanelAVX512: the pivots L00..L77
// in X16..X23; L10, L20, L21, L30, L31, L32 in X24..X29; L54, L64, L65 in
// X30, X31, X15 and L74, L75, L76 in X14, X13, X12. For m in 0..3 the
// column slice (L4m, L5m, L6m, L7m) is read from the block's own transposed
// copy, at DX + m*stride + 32 (DX = &l[j0][j0]). Columns 0..3 go as
// CHOL_FINISH does. Columns 4..7 then subtract the terms k = j0..j0+3 in
// four lanes, in ascending k, and finish their own terms in scalar. Each
// L[i][j0+c] is stored in place and at its transposed position
// l[j0+c][i], at CX + c*stride for c < 4 and R14 + (c-4)*stride after.
#define CHOL8_FINISH \
	VMOVSD       (R13), X0;             \
	VDIVSD       X16, X0, X0;           \
	VMOVSD       X0, (R13);             \
	VMOVSD       X0, (CX);              \
	VMOVSD       8(R13), X1;            \
	VMULSD       X24, X0, X4;           \
	VSUBSD       X4, X1, X1;            \
	VDIVSD       X17, X1, X1;           \
	VMOVSD       X1, 8(R13);            \
	VMOVSD       X1, (CX)(R10*1);       \
	VMOVSD       16(R13), X2;           \
	VMULSD       X25, X0, X4;           \
	VSUBSD       X4, X2, X2;            \
	VMULSD       X26, X1, X4;           \
	VSUBSD       X4, X2, X2;            \
	VDIVSD       X18, X2, X2;           \
	VMOVSD       X2, 16(R13);           \
	VMOVSD       X2, (CX)(R10*2);       \
	VMOVSD       24(R13), X3;           \
	VMULSD       X27, X0, X4;           \
	VSUBSD       X4, X3, X3;            \
	VMULSD       X28, X1, X4;           \
	VSUBSD       X4, X3, X3;            \
	VMULSD       X29, X2, X4;           \
	VSUBSD       X4, X3, X3;            \
	VDIVSD       X19, X3, X3;           \
	VMOVSD       X3, 24(R13);           \
	VMOVSD       X3, (CX)(R11*1);       \
	VMOVUPD      32(R13), Y5;           \
	VBROADCASTSD X0, Y6;                \
	VMULPD       32(DX), Y6, Y6;        \
	VSUBPD       Y6, Y5, Y5;            \
	VBROADCASTSD X1, Y6;                \
	VMULPD       32(DX)(R10*1), Y6, Y6; \
	VSUBPD       Y6, Y5, Y5;            \
	VBROADCASTSD X2, Y6;                \
	VMULPD       32(DX)(R10*2), Y6, Y6; \
	VSUBPD       Y6, Y5, Y5;            \
	VBROADCASTSD X3, Y6;                \
	VMULPD       32(DX)(R11*1), Y6, Y6; \
	VSUBPD       Y6, Y5, Y5;            \
	LEAQ         (CX)(R10*4), R14;      \
	VDIVSD       X20, X5, X0;           \
	VMOVSD       X0, 32(R13);           \
	VMOVSD       X0, (R14);             \
	VUNPCKHPD    X5, X5, X1;            \
	VMULSD       X30, X0, X4;           \
	VSUBSD       X4, X1, X1;            \
	VDIVSD       X21, X1, X1;           \
	VMOVSD       X1, 40(R13);           \
	VMOVSD       X1, (R14)(R10*1);      \
	VEXTRACTF128 $1, Y5, X2;            \
	VUNPCKHPD    X2, X2, X3;            \
	VMULSD       X31, X0, X4;           \
	VSUBSD       X4, X2, X2;            \
	VMULSD       X15, X1, X4;           \
	VSUBSD       X4, X2, X2;            \
	VDIVSD       X22, X2, X2;           \
	VMOVSD       X2, 48(R13);           \
	VMOVSD       X2, (R14)(R10*2);      \
	VMULSD       X14, X0, X4;           \
	VSUBSD       X4, X3, X3;            \
	VMULSD       X13, X1, X4;           \
	VSUBSD       X4, X3, X3;            \
	VMULSD       X12, X2, X4;           \
	VSUBSD       X4, X3, X3;            \
	VDIVSD       X23, X3, X3;           \
	VMOVSD       X3, 56(R13);           \
	VMOVSD       X3, (R14)(R11*1)

// func cholPanelAVX512(l, a *float64, n, j0 int)
//
// Finishes columns j0..j0+7 of every row i >= j0+8, given the finished
// diagonal block with its transposed copy, and the transposed copy of
// columns < j0: eight rows per sweep over k, then four if four remain,
// then one at a time. Each sweep's rows are finished before the next
// sweep, so the out-of-order core overlaps their eight independent
// division chains.
TEXT ·cholPanelAVX512(SB), NOSPLIT, $0-32
	MOVQ l+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ j0+24(FP), R9
	MOVQ R8, R10
	SHLQ $3, R10              // R10 = row stride in bytes
	LEAQ (R10)(R10*2), R11    // R11 = 3 * stride

	// The finished diagonal block's scalars (see CHOL8_FINISH), from
	// DX = &l[j0][j0] and BX = &l[j0+4][j0].
	MOVQ R9, AX
	IMULQ R8, AX
	ADDQ R9, AX
	LEAQ (DI)(AX*8), DX
	VMOVSD (DX), X16
	VMOVSD (DX)(R10*1), X24
	VMOVSD 8(DX)(R10*1), X17
	VMOVSD (DX)(R10*2), X25
	VMOVSD 8(DX)(R10*2), X26
	VMOVSD 16(DX)(R10*2), X18
	VMOVSD (DX)(R11*1), X27
	VMOVSD 8(DX)(R11*1), X28
	VMOVSD 16(DX)(R11*1), X29
	VMOVSD 24(DX)(R11*1), X19
	LEAQ (DX)(R10*4), BX
	VMOVSD 32(BX), X20
	VMOVSD 32(BX)(R10*1), X30
	VMOVSD 40(BX)(R10*1), X21
	VMOVSD 32(BX)(R10*2), X31
	VMOVSD 40(BX)(R10*2), X15
	VMOVSD 48(BX)(R10*2), X22
	VMOVSD 32(BX)(R11*1), X14
	VMOVSD 40(BX)(R11*1), X13
	VMOVSD 48(BX)(R11*1), X12
	VMOVSD 56(BX)(R11*1), X23

	LEAQ 8(R9), R12           // R12 = i, the next row to sweep

panel8x8:
	LEAQ 8(R12), AX
	CMPQ AX, R8
	JGT  panel8x4             // fewer than eight rows left
	MOVQ R12, AX
	IMULQ R8, AX
	CHOL_LOAD8
	LEAQ (DI)(R9*8), CX       // CX = &l[0][j0]
	MOVQ R9, AX
	TESTQ AX, AX
	JZ   panel8x8store

panel8x8k:
	CHOL_K8
	CHOL_K8_HIGH
	PREFETCHT0 (CX)(R10*8)
	PREFETCHT0 63(CX)(R10*8)
	ADDQ $8, R14
	ADDQ $8, BX
	ADDQ R10, CX
	DECQ AX
	JNZ  panel8x8k

panel8x8store:
	// R14 = &l[i][j0] and BX = &l[i+4][j0] now.
	CHOL_STORE8
	MOVQ R12, BX              // BX = the first row to finish
	ADDQ $8, R12
	JMP  panel8fin

panel8x4:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  panel8x1             // fewer than four rows left
	MOVQ R12, AX
	IMULQ R8, AX
	LEAQ (DI)(AX*8), R14      // R14 = &l[i][0]
	LEAQ (SI)(AX*8), R13
	LEAQ (R13)(R9*8), R13     // R13 = &a[i][j0]
	VMOVUPD (R13), Z0
	VMOVUPD (R13)(R10*1), Z1
	VMOVUPD (R13)(R10*2), Z2
	VMOVUPD (R13)(R11*1), Z3
	LEAQ (DI)(R9*8), CX       // CX = &l[0][j0]
	MOVQ R9, AX
	TESTQ AX, AX
	JZ   panel8x4store

panel8x4k:
	CHOL_K8
	PREFETCHT0 (CX)(R10*8)
	PREFETCHT0 63(CX)(R10*8)
	ADDQ $8, R14
	ADDQ R10, CX
	DECQ AX
	JNZ  panel8x4k

panel8x4store:
	VMOVUPD Z0, (R14)
	VMOVUPD Z1, (R14)(R10*1)
	VMOVUPD Z2, (R14)(R10*2)
	VMOVUPD Z3, (R14)(R11*1)
	MOVQ R12, BX
	ADDQ $4, R12
	JMP  panel8fin

panel8x1:
	CMPQ R12, R8
	JGE  panel8done
	MOVQ R12, AX
	IMULQ R8, AX
	LEAQ (DI)(AX*8), R14      // R14 = &l[i][0]
	LEAQ (SI)(AX*8), R13
	VMOVUPD (R13)(R9*8), Z0   // a[i][j0..j0+7]
	LEAQ (DI)(R9*8), CX       // CX = &l[0][j0]
	MOVQ R9, AX
	TESTQ AX, AX
	JZ   panel8x1store

panel8x1k:
	VMOVUPD      (CX), Z8
	VBROADCASTSD (R14), Z9
	VMULPD       Z8, Z9, Z9
	VSUBPD       Z9, Z0, Z0
	ADDQ $8, R14
	ADDQ R10, CX
	DECQ AX
	JNZ  panel8x1k

panel8x1store:
	VMOVUPD Z0, (R14)
	MOVQ R12, BX
	INCQ R12

panel8fin:
	// Finish rows BX..R12-1, from R13 = &l[BX][j0] and CX = &l[j0][BX].
	MOVQ BX, AX
	IMULQ R8, AX
	LEAQ (DI)(AX*8), R13
	LEAQ (R13)(R9*8), R13
	MOVQ BX, AX
	SUBQ R9, AX
	LEAQ (DX)(AX*8), CX
	MOVQ R12, AX
	SUBQ BX, AX

panel8row:
	CHOL8_FINISH
	ADDQ R10, R13
	ADDQ $8, CX
	DECQ AX
	JNZ  panel8row
	JMP  panel8x8

panel8done:
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
