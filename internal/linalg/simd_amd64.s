//go:build amd64 && !purego

#include "textflag.h"

// The module's SIMD kernels: AVX2 ones for CholeskyInto, SyrkTInto,
// AccumulateScaled and AccumulateProduct at float64, AVX-512 ones for
// CholeskyInto's eight-column blocks, a packed exp for ExpScaled, and the
// one CPU probe that decides which of them run (cpuFeatures).
//
// The linear-algebra kernels vectorize across independent outputs, never
// along a reduction: each lane replays one entry's scalar sequence (a
// float64 accumulator, ascending k, a multiply then a separate subtract
// or add, one store), so the results are the Go loops' bit for bit. No
// fused multiply-add appears in them. The exp kernel is the one exception:
// it replays math.Exp's own fused operations (see expLanesAVX2). Scalar
// work uses VEX forms (EVEX for X16..X31) only: a legacy-SSE instruction
// after 256-bit work pays a state-transition penalty.

// func cpuFeatures() (avx2, fma, avx512 bool)
//
// avx2: the CPU has AVX2 and the OS saves YMM state. fma: AVX2 as well,
// and FMA. avx512: AVX2 as well, AVX512F, and the OS saves the opmask and
// ZMM state too.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-3
	MOVB  $0, avx2+0(FP)
	MOVB  $0, fma+1(FP)
	MOVB  $0, avx512+2(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   nosimd

	// Leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX). R10 keeps ECX for
	// the FMA test below.
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, R10
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

	// Leaf 1 ECX bit 12 (FMA).
	ANDL  $0x1000, R10
	JZ    probe512
	MOVB  $1, fma+1(FP)

probe512:
	// EBX bit 16 (AVX512F), and XCR0 bits 5..7: the OS saves the opmask
	// registers, the upper halves of ZMM0..15 and ZMM16..31.
	ANDL  $0x10000, R9
	JZ    nosimd
	ANDL  $0xe6, R8
	CMPL  R8, $0xe6
	JNE   nosimd
	MOVB  $1, avx512+2(FP)

nosimd:
	RET

// The Cholesky kernels take (l, a *float64, n, j0 int) and share one
// register plan: DI = l, SI = a, R8 = n, R9 = j0, R10 = the row stride in
// bytes and R11 = 3 * stride. In a sweep over k < j0, CX walks the lane
// operand L[j0..][k] down the transposed copy (row k, from &l[0][j0]),
// R14 walks the swept rows' finished columns L[i][k], and AX counts k
// down. The macros below serve both tiers; the four-column one passes Y
// registers, the eight-column one Z registers.

// CHOL_ROW is one row's term of a k step: A -= L[i][k] * V, with L[i][k]
// at P, the lane vector in V and T as the only temporary.
#define CHOL_ROW(P, V, T, A) \
	VBROADCASTSD P, T;    \
	VMULPD       V, T, T; \
	VSUBPD       T, A, A

// CHOL_ROWS4 is CHOL_ROW for four rows at P + r*stride, r in 0..3, into
// A..D.
#define CHOL_ROWS4(P, V, T, A, B, C, D) \
	CHOL_ROW((P), V, T, A);        \
	CHOL_ROW((P)(R10*1), V, T, B); \
	CHOL_ROW((P)(R10*2), V, T, C); \
	CHOL_ROW((P)(R11*1), V, T, D)

// CHOL_K is one k step of a four-row sweep: V = the lane vector at CX,
// then CHOL_ROWS4 on the rows at R14.
#define CHOL_K(V, T, A, B, C, D) \
	VMOVUPD (CX), V; \
	CHOL_ROWS4(R14, V, T, A, B, C, D)

// CHOL_KNEXT steps R14 and CX to the next k and counts it off.
#define CHOL_KNEXT \
	ADDQ $8, R14;   \
	ADDQ R10, CX;   \
	DECQ AX

// CHOL_KSTART points CX at the lane operand of k = 0 and sets AX = j0, the
// number of k steps, leaving the flags for a JZ past the sweep.
#define CHOL_KSTART \
	LEAQ  (DI)(R9*8), CX; \
	MOVQ  R9, AX;         \
	TESTQ AX, AX

// CHOL_ROWAT points R14 = &l[I][0] and R13 = &a[I][0].
#define CHOL_ROWAT(I) \
	MOVQ  I, AX;          \
	IMULQ R8, AX;         \
	LEAQ  (DI)(AX*8), R14; \
	LEAQ  (SI)(AX*8), R13

// CHOL_LOAD4 and CHOL_STORE4 move four rows' lanes, at P + r*stride.
#define CHOL_LOAD4(P, A, B, C, D) \
	VMOVUPD (P), A;        \
	VMOVUPD (P)(R10*1), B; \
	VMOVUPD (P)(R10*2), C; \
	VMOVUPD (P)(R11*1), D

#define CHOL_STORE4(A, B, C, D, P) \
	VMOVUPD A, (P);        \
	VMOVUPD B, (P)(R10*1); \
	VMOVUPD C, (P)(R10*2); \
	VMOVUPD D, (P)(R11*1)

// CHOL_SWEEP1 sums the lanes of the single row i = R12 into A:
// A = a[i][j0..], then CHOL_K's step over every k < j0 at labels LOOP and
// DONE. R14 = &l[i][j0] afterwards.
#define CHOL_SWEEP1(V, T, A, LOOP, DONE) \
	CHOL_ROWAT(R12);         \
	VMOVUPD (R13)(R9*8), A;  \
	CHOL_KSTART;             \
	JZ      DONE;            \
LOOP:                            \
	VMOVUPD (CX), V;         \
	CHOL_ROW((R14), V, T, A); \
	CHOL_KNEXT;              \
	JNZ     LOOP;            \
DONE:

// CHOL_DIAG4 loads the lower triangle of a finished 4×4 diagonal block,
// row-major from OFF(P) with the row stride, into scalar registers:
// Drr = L[r][r] and Lrc = L[r][c] for c < r.
#define CHOL_DIAG4(P, OFF, D0, L10, D1, L20, L21, D2, L30, L31, L32, D3) \
	VMOVSD OFF(P), D0;            \
	VMOVSD OFF(P)(R10*1), L10;    \
	VMOVSD OFF+8(P)(R10*1), D1;   \
	VMOVSD OFF(P)(R10*2), L20;    \
	VMOVSD OFF+8(P)(R10*2), L21;  \
	VMOVSD OFF+16(P)(R10*2), D2;  \
	VMOVSD OFF(P)(R11*1), L30;    \
	VMOVSD OFF+8(P)(R11*1), L31;  \
	VMOVSD OFF+16(P)(R11*1), L32; \
	VMOVSD OFF+24(P)(R11*1), D3

// CHOL_FINISH4 completes the first four block columns of one row below
// the diagonal block in scalar, in the scalar column loop's order. On
// entry R13 = &l[i][j0] holds the lane sums, and the block's first four
// columns are held as CHOL_DIAG4 loads them. Each L[i][j0+c] is stored in
// place and at its transposed position l[j0+c][i], at TP + c*stride.
// X0..X3 keep L[i][j0..j0+3]; X4 is the temporary.
#define CHOL_FINISH4(TP, D0, L10, D1, L20, L21, D2, L30, L31, L32, D3) \
	VMOVSD (R13), X0;       \
	VDIVSD D0, X0, X0;      \
	VMOVSD X0, (R13);       \
	VMOVSD X0, (TP);        \
	VMOVSD 8(R13), X1;      \
	VMULSD L10, X0, X4;     \
	VSUBSD X4, X1, X1;      \
	VDIVSD D1, X1, X1;      \
	VMOVSD X1, 8(R13);      \
	VMOVSD X1, (TP)(R10*1); \
	VMOVSD 16(R13), X2;     \
	VMULSD L20, X0, X4;     \
	VSUBSD X4, X2, X2;      \
	VMULSD L21, X1, X4;     \
	VSUBSD X4, X2, X2;      \
	VDIVSD D2, X2, X2;      \
	VMOVSD X2, 16(R13);     \
	VMOVSD X2, (TP)(R10*2); \
	VMOVSD 24(R13), X3;     \
	VMULSD L30, X0, X4;     \
	VSUBSD X4, X3, X3;      \
	VMULSD L31, X1, X4;     \
	VSUBSD X4, X3, X3;      \
	VMULSD L32, X2, X4;     \
	VSUBSD X4, X3, X3;      \
	VDIVSD D3, X3, X3;      \
	VMOVSD X3, 24(R13);     \
	VMOVSD X3, (TP)(R11*1)

// The four-column tier keeps its diagonal block in X6..X15 and its
// transposed pointer in BX.
#define CHOL_FINISH CHOL_FINISH4(BX, X6, X7, X8, X9, X10, X11, X12, X13, X14, X15)

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

	CHOL_ROWAT(R9)
	LEAQ (R13)(R9*8), R13     // R13 = &a[j0][j0]
	CHOL_LOAD4(R13, Y0, Y1, Y2, Y3)
	CHOL_KSTART
	JZ   tilestore

tilek:
	CHOL_K(Y4, Y5, Y0, Y1, Y2, Y3)
	CHOL_KNEXT
	JNZ  tilek

tilestore:
	MOVQ R14, R13             // R13 = &l[j0][j0]
	CHOL_STORE4(Y0, Y1, Y2, Y3, R13)
	VZEROUPPER
	RET

// func cholPanelAVX2(l, a *float64, n, j0 int)
//
// Finishes columns j0..j0+3 of every row i >= j0+4, given the finished
// diagonal block and the transposed copy of columns < j0: four rows per
// sweep over k, then the remaining rows one at a time. CHOL_FINISH reads
// the block from X6..X15, loaded from DX = &l[j0][j0].
TEXT ·cholPanelAVX2(SB), NOSPLIT, $0-32
	MOVQ l+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ j0+24(FP), R9
	MOVQ R8, R10
	SHLQ $3, R10              // R10 = row stride in bytes
	LEAQ (R10)(R10*2), R11    // R11 = 3 * stride

	MOVQ R9, AX
	IMULQ R8, AX
	ADDQ R9, AX
	LEAQ (DI)(AX*8), DX
	CHOL_DIAG4(DX, 0, X6, X7, X8, X9, X10, X11, X12, X13, X14, X15)

	LEAQ 4(R9), R12           // R12 = i

panel4:
	LEAQ 4(R12), AX
	CMPQ AX, R8
	JGT  panel1
	CHOL_ROWAT(R12)
	LEAQ (R13)(R9*8), R13     // R13 = &a[i][j0]
	CHOL_LOAD4(R13, Y0, Y1, Y2, Y3)
	CHOL_KSTART
	JZ   panel4fin

panel4k:
	CHOL_K(Y4, Y5, Y0, Y1, Y2, Y3)
	CHOL_KNEXT
	JNZ  panel4k

panel4fin:
	// R14 = &l[i][j0] now: store the lane sums in place and finish.
	MOVQ R14, R13
	CHOL_STORE4(Y0, Y1, Y2, Y3, R13)
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
	CHOL_SWEEP1(Y4, Y5, Y0, panel1k, panel1fin)
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

// CHOL_K8_HIGH continues an eight-column CHOL_K on rows 4..7 of an
// eight-row sweep, at BX + (r-4)*stride, into Z4..Z7, with the lane
// vector already in Z8.
#define CHOL_K8_HIGH CHOL_ROWS4(BX, Z8, Z9, Z4, Z5, Z6, Z7)

// CHOL_LOAD8 loads the eight-row sweep's starting values, a[i+r][j0..j0+7]
// from R13 = &a[i][j0], into Z0..Z7, and points R14 = &l[i][0] and
// BX = &l[i+4][0] at the rows' finished columns; AX = i*n on entry.
#define CHOL_LOAD8 \
	LEAQ    (DI)(AX*8), R14;       \
	LEAQ    (R14)(R10*4), BX;      \
	LEAQ    (SI)(AX*8), R13;       \
	LEAQ    (R13)(R9*8), R13;      \
	CHOL_LOAD4(R13, Z0, Z1, Z2, Z3); \
	LEAQ    (R13)(R10*4), R13;     \
	CHOL_LOAD4(R13, Z4, Z5, Z6, Z7)

// CHOL_STORE8 stores the eight rows' lane sums at R14 = &l[i][j0] and
// BX = &l[i+4][j0].
#define CHOL_STORE8 \
	CHOL_STORE4(Z0, Z1, Z2, Z3, R14); \
	CHOL_STORE4(Z4, Z5, Z6, Z7, BX)

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
	CHOL_KSTART
	JZ   tile8store

tile8k:
	CHOL_K(Z8, Z9, Z0, Z1, Z2, Z3)
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
// copy, at DX + m*stride + 32 (DX = &l[j0][j0]). Columns 0..3 go through
// CHOL_FINISH4. Columns 4..7 then subtract the terms k = j0..j0+3 in
// four lanes, in ascending k, and finish their own terms in scalar. Each
// L[i][j0+c] is stored in place and at its transposed position
// l[j0+c][i], at CX + c*stride for c < 4 and R14 + (c-4)*stride after.
#define CHOL8_FINISH \
	CHOL_FINISH4(CX, X16, X24, X17, X25, X26, X18, X27, X28, X29, X19); \
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
	CHOL_DIAG4(DX, 0, X16, X24, X17, X25, X26, X18, X27, X28, X29, X19)
	LEAQ (DX)(R10*4), BX
	CHOL_DIAG4(BX, 32, X20, X30, X21, X31, X15, X22, X14, X13, X12, X23)

	LEAQ 8(R9), R12           // R12 = i, the next row to sweep

panel8x8:
	LEAQ 8(R12), AX
	CMPQ AX, R8
	JGT  panel8x4             // fewer than eight rows left
	MOVQ R12, AX
	IMULQ R8, AX
	CHOL_LOAD8
	CHOL_KSTART
	JZ   panel8x8store

panel8x8k:
	CHOL_K(Z8, Z9, Z0, Z1, Z2, Z3)
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
	CHOL_ROWAT(R12)
	LEAQ (R13)(R9*8), R13     // R13 = &a[i][j0]
	CHOL_LOAD4(R13, Z0, Z1, Z2, Z3)
	CHOL_KSTART
	JZ   panel8x4store

panel8x4k:
	CHOL_K(Z8, Z9, Z0, Z1, Z2, Z3)
	PREFETCHT0 (CX)(R10*8)
	PREFETCHT0 63(CX)(R10*8)
	CHOL_KNEXT
	JNZ  panel8x4k

panel8x4store:
	CHOL_STORE4(Z0, Z1, Z2, Z3, R14)
	MOVQ R12, BX
	ADDQ $4, R12
	JMP  panel8fin

panel8x1:
	CMPQ R12, R8
	JGE  panel8done
	CHOL_SWEEP1(Z8, Z9, Z0, panel8x1k, panel8x1store)
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

// A packed copy of the FMA branch of math.Exp (math/exp_amd64.s, taken
// when the CPU has AVX and FMA). Each of the four lanes is one independent
// output and replays the scalar instruction sequence exactly: the same
// constants, the same multiplies, adds and fused multiply-adds in the same
// order, the same round-to-nearest conversion of the exponent and the same
// ldexp by a shifted exponent. So on a host where math.Exp takes that
// branch — every host this kernel is dispatched on — each lane equals
// math.Exp bit for bit. Only groups whose four arguments all lie in
// [-708, 0] come through here: that range has no NaN or infinity, no
// overflow, and no denormal result, so the scalar code's special-case
// branches are never taken on it.

#define EXP_LOG2E 1.4426950408889634073599246810018920
#define EXP_LN2U 0.69314718055966295651160180568695068359375
#define EXP_LN2L 0.28235290563031577122588448175013436025525412068e-12

// Each constant is broadcast to four lanes (32 bytes).
#define EXP_CONST(off, v) \
	DATA expconst<>+(off)(SB)/8, v; \
	DATA expconst<>+(off+8)(SB)/8, v; \
	DATA expconst<>+(off+16)(SB)/8, v; \
	DATA expconst<>+(off+24)(SB)/8, v

EXP_CONST(0, $EXP_LOG2E)
EXP_CONST(32, $EXP_LN2U)
EXP_CONST(64, $EXP_LN2L)
EXP_CONST(96, $0.0625)
EXP_CONST(128, $2.4801587301587301587e-5)
EXP_CONST(160, $1.9841269841269841270e-4)
EXP_CONST(192, $1.3888888888888888889e-3)
EXP_CONST(224, $8.3333333333333333333e-3)
EXP_CONST(256, $4.1666666666666666667e-2)
EXP_CONST(288, $1.6666666666666666667e-1)
EXP_CONST(320, $0.5)
EXP_CONST(352, $1.0)
EXP_CONST(384, $2.0)
EXP_CONST(416, $-708.0)
EXP_CONST(448, $0x3FF)
GLOBL expconst<>(SB), RODATA|NOPTR, $480

// func expLanesAVX2(x *float64, n int, m float64) int
//
// Overwrites x[i] with exp(m·x[i]) four entries at a time, from the start,
// and returns how many entries it wrote: a multiple of four, which stops
// short of n at the first group with an argument m·x[i] outside [-708, 0]
// (NaN included) or where fewer than four entries are left. That group and
// the tail are the caller's, for scalar math.Exp.
TEXT ·expLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD m+16(FP), Y15
	VMOVUPD      expconst<>+416(SB), Y14 // -708
	VXORPD       Y13, Y13, Y13           // 0
	XORQ         AX, AX

loop:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JLT  done

	// Y0 = m·x; every lane must satisfy -708 <= Y0 <= 0 (ordered).
	VMULPD    (DI)(AX*8), Y15, Y0
	VCMPPD    $0x1d, Y14, Y0, Y4 // GE_OQ
	VCMPPD    $0x12, Y13, Y0, Y5 // LE_OQ
	VANDPD    Y5, Y4, Y4
	VMOVMSKPD Y4, DX
	CMPL      DX, $15
	JNE       done

	// k = round(x·log2(e)); x -= k·ln2 in two fused steps.
	VMULPD       expconst<>+0(SB), Y0, Y1
	VCVTPD2DQY   Y1, X3
	VCVTDQ2PD    X3, Y2
	VFNMADD231PD expconst<>+32(SB), Y2, Y0
	VFNMADD231PD expconst<>+64(SB), Y2, Y0

	// Reduce by 16 and evaluate the Taylor polynomial.
	VMULPD      expconst<>+96(SB), Y0, Y0
	VMOVUPD     expconst<>+128(SB), Y1
	VFMADD213PD expconst<>+160(SB), Y0, Y1
	VFMADD213PD expconst<>+192(SB), Y0, Y1
	VFMADD213PD expconst<>+224(SB), Y0, Y1
	VFMADD213PD expconst<>+256(SB), Y0, Y1
	VFMADD213PD expconst<>+288(SB), Y0, Y1
	VFMADD213PD expconst<>+320(SB), Y0, Y1
	VFMADD213PD expconst<>+352(SB), Y0, Y1

	// Undo the reduction: four square steps y = y·(y+2), the last one
	// fused with the final +1.
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+384(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expconst<>+384(SB), Y0, Y1
	VFMADD213PD expconst<>+352(SB), Y1, Y0

	// Scale by 2^k: (k + 1023) << 52 is the bit pattern of 2^k.
	VPMOVSXDQ X3, Y3
	VPADDQ    expconst<>+448(SB), Y3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0

	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	MOVQ       AX, ret+24(FP)
	VZEROUPPER
	RET
