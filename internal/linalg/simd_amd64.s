//go:build amd64 && !purego

#include "textflag.h"

// The module's SIMD kernels: AVX2 ones for CholeskyInto, SyrkTInto,
// SyrkInto, PairwiseSquaredDistancesUpperInto, AccumulateScaled and
// AccumulateProduct at float64, AVX-512 ones for CholeskyInto's
// eight-column blocks and the SyrkInto and distance rows, a packed exp for
// ExpScaled, and the one CPU probe that decides which of them run
// (cpuFeatures).
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
//
// A panel (the rows below a diagonal block of w = 4 or 8 columns) takes
// two passes. The first sweeps its rows over k, one row per register and
// the block's columns across the lanes, and stores the lane sums in
// place. The second finishes them in windows of w rows, one column per
// register and the rows across the lanes: the window is transposed in
// registers (CHOL4_TRANSPOSE, CHOL8_TRANSPOSE), each column subtracts its
// within-block terms in ascending order and takes its one division by
// the pivot (CHOL4_LANES, CHOL8_LANES), with the finished block's entries
// broadcast from its rows at DX = &l[j0][j0] (and BX = &l[j0+4][j0] for
// rows 4..7), the columns are stored as the transposed copy the next
// blocks read, and the window is transposed back and stored as rows. A
// column's division waits on the column before it, so two windows run at
// once, their chains interleaved; one division then serves w rows, and
// the divider, not the chain, bounds the finish. Rows that do not fill a
// window go through the window of the matrix's last w rows (or 4, in a
// sweep), which stores only them: the other rows it reads are finished
// or swept rows, or the diagonal block's, so the reads stay inside the
// matrix and their lanes are dropped.

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

// CHOL_STORELAST4 stores the last rows of four at P + r*stride, D first
// and A last: a window's rows N+3, N+2, N+1, N counting from its end,
// each only while the window stores more than that many (S, a register),
// jumping to DONE at the first it does not.
#define CHOL_STORELAST4(A, B, C, D, P, S, N, DONE) \
	CMPQ    S, $(N+1);       \
	JLT     DONE;            \
	VMOVUPD D, (P)(R11*1);   \
	CMPQ    S, $(N+2);       \
	JLT     DONE;            \
	VMOVUPD C, (P)(R10*2);   \
	CMPQ    S, $(N+3);       \
	JLT     DONE;            \
	VMOVUPD B, (P)(R10*1);   \
	CMPQ    S, $(N+4);       \
	JLT     DONE;            \
	VMOVUPD A, (P)

// CHOL_WINDOW picks the next window of W rows (W a constant) from R12,
// the next row to handle, setting S (a register) to the rows left. With
// none left it jumps to DONE. Otherwise R12 moves W rows on and AX is
// the window's first row: the old R12, jumping to WIN, when a whole
// window is left; else n - W, the matrix's last W rows, falling through.
#define CHOL_WINDOW(W, S, DONE, WIN) \
	MOVQ R8, S;         \
	SUBQ R12, S;        \
	JLE  DONE;          \
	MOVQ R12, AX;       \
	ADDQ $W, R12;       \
	CMPQ S, $W;         \
	JGE  WIN;           \
	MOVQ R8, AX;        \
	SUBQ $W, AX

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

// CHOL4_TRANSPOSE transposes the 4×4 block in A..D in place, through
// Y12..Y15: lane c of the r-th register moves to lane r of the c-th. It is
// its own inverse.
#define CHOL4_TRANSPOSE(A, B, C, D) \
	VUNPCKLPD  B, A, Y12;          \
	VUNPCKHPD  B, A, Y13;          \
	VUNPCKLPD  D, C, Y14;          \
	VUNPCKHPD  D, C, Y15;          \
	VPERM2F128 $0x20, Y14, Y12, A; \
	VPERM2F128 $0x20, Y15, Y13, B; \
	VPERM2F128 $0x31, Y14, Y12, C; \
	VPERM2F128 $0x31, Y15, Y13, D

// CHOL4_TERM is one within-block term of a window's column, in lanes:
// C -= M * L, with L broadcast from P into the temporary T.
#define CHOL4_TERM(P, M, T, C) \
	VBROADCASTSD P, T;    \
	VMULPD       T, M, T; \
	VSUBPD       T, C, C

// CHOL4_DIV divides a window's column C by the pivot at P, through T.
#define CHOL4_DIV(P, T, C) \
	VBROADCASTSD P, T; \
	VDIVPD       T, C, C

// CHOL4_COLc finishes column j0+c of a window whose columns are in A..D:
// the terms m < c in ascending m, then the division by L[j0+c][j0+c].
#define CHOL4_COL0(A, T) \
	CHOL4_DIV((DX), T, A)

#define CHOL4_COL1(A, B, T) \
	CHOL4_TERM((DX)(R10*1), A, T, B); \
	CHOL4_DIV(8(DX)(R10*1), T, B)

#define CHOL4_COL2(A, B, C, T) \
	CHOL4_TERM((DX)(R10*2), A, T, C);  \
	CHOL4_TERM(8(DX)(R10*2), B, T, C); \
	CHOL4_DIV(16(DX)(R10*2), T, C)

#define CHOL4_COL3(A, B, C, D, T) \
	CHOL4_TERM((DX)(R11*1), A, T, D);   \
	CHOL4_TERM(8(DX)(R11*1), B, T, D);  \
	CHOL4_TERM(16(DX)(R11*1), C, T, D); \
	CHOL4_DIV(24(DX)(R11*1), T, D)

// CHOL4_LANES finishes one window's columns, in Y0..Y3.
#define CHOL4_LANES \
	CHOL4_COL0(Y0, Y8);             \
	CHOL4_COL1(Y0, Y1, Y8);         \
	CHOL4_COL2(Y0, Y1, Y2, Y8);     \
	CHOL4_COL3(Y0, Y1, Y2, Y3, Y8)

// CHOL4_LANES2 finishes two windows' columns, in Y0..Y3 and Y4..Y7, one
// column of each in turn.
#define CHOL4_LANES2 \
	CHOL4_COL0(Y0, Y8);             \
	CHOL4_COL0(Y4, Y9);             \
	CHOL4_COL1(Y0, Y1, Y8);         \
	CHOL4_COL1(Y4, Y5, Y9);         \
	CHOL4_COL2(Y0, Y1, Y2, Y8);     \
	CHOL4_COL2(Y4, Y5, Y6, Y9);     \
	CHOL4_COL3(Y0, Y1, Y2, Y3, Y8); \
	CHOL4_COL3(Y4, Y5, Y6, Y7, Y9)

// cholmask<> holds four zero quadwords, then four with every bit set: the
// four at byte 8*s select the last s lanes of a window, for VMASKMOVPD.
DATA cholmask<>+32(SB)/8, $-1
DATA cholmask<>+40(SB)/8, $-1
DATA cholmask<>+48(SB)/8, $-1
DATA cholmask<>+56(SB)/8, $-1
GLOBL cholmask<>(SB), RODATA|NOPTR, $64

// func cholPanelAVX2(l, a *float64, n, j0 int)
//
// Finishes columns j0..j0+3 of every row i >= j0+4, given the finished
// diagonal block and the transposed copy of columns < j0. The first pass
// sweeps four rows at a time; the second finishes eight rows at a time
// (two windows), then four.
TEXT ·cholPanelAVX2(SB), NOSPLIT, $0-32
	MOVQ l+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ j0+24(FP), R9
	MOVQ R8, R10
	SHLQ $3, R10              // R10 = row stride in bytes
	LEAQ (R10)(R10*2), R11    // R11 = 3 * stride

	LEAQ 4(R9), R12           // R12 = the next row to sweep

panel4:
	CHOL_WINDOW(4, DX, panel4lanes, panel4sweep)

panel4sweep:
	CHOL_ROWAT(AX)
	LEAQ (R13)(R9*8), R13     // R13 = &a[AX][j0]
	CHOL_LOAD4(R13, Y0, Y1, Y2, Y3)
	CHOL_KSTART
	JZ   panel4store

panel4k:
	CHOL_K(Y4, Y5, Y0, Y1, Y2, Y3)
	CHOL_KNEXT
	JNZ  panel4k

panel4store:
	// R14 = &l[window][j0] now.
	CHOL_STORELAST4(Y0, Y1, Y2, Y3, R14, DX, 0, panel4)
	JMP  panel4

panel4lanes:
	MOVQ R9, AX
	IMULQ R8, AX
	ADDQ R9, AX
	LEAQ (DI)(AX*8), DX       // DX = &l[j0][j0]
	LEAQ 4(R9), R12           // R12 = the next row to finish

panel4pair:
	// Rows i..i+7: R13 = &l[i][j0], R14 = &l[i+4][j0] and CX = &l[j0][i].
	LEAQ 8(R12), AX
	CMPQ AX, R8
	JGT  panel4window
	MOVQ R12, AX
	IMULQ R8, AX
	ADDQ R9, AX
	LEAQ (DI)(AX*8), R13
	LEAQ (R13)(R10*4), R14
	MOVQ R12, AX
	SUBQ R9, AX
	LEAQ (DX)(AX*8), CX
	CHOL_LOAD4(R13, Y0, Y1, Y2, Y3)
	CHOL_LOAD4(R14, Y4, Y5, Y6, Y7)
	CHOL4_TRANSPOSE(Y0, Y1, Y2, Y3)
	CHOL4_TRANSPOSE(Y4, Y5, Y6, Y7)
	CHOL4_LANES2
	CHOL_STORE4(Y0, Y1, Y2, Y3, CX)
	LEAQ 32(CX), CX
	CHOL_STORE4(Y4, Y5, Y6, Y7, CX)
	CHOL4_TRANSPOSE(Y0, Y1, Y2, Y3)
	CHOL4_TRANSPOSE(Y4, Y5, Y6, Y7)
	CHOL_STORE4(Y0, Y1, Y2, Y3, R13)
	CHOL_STORE4(Y4, Y5, Y6, Y7, R14)
	ADDQ $8, R12
	JMP  panel4pair

panel4window:
	// One window, of which the last SI rows are stored: R13 = &l[AX][j0]
	// and CX = &l[j0][AX].
	CHOL_WINDOW(4, SI, panel4done, panel4win)

panel4win:
	MOVQ AX, R13
	IMULQ R8, R13
	ADDQ R9, R13
	LEAQ (DI)(R13*8), R13
	SUBQ R9, AX
	LEAQ (DX)(AX*8), CX
	CHOL_LOAD4(R13, Y0, Y1, Y2, Y3)
	CHOL4_TRANSPOSE(Y0, Y1, Y2, Y3)
	CHOL4_LANES
	CMPQ SI, $4
	JLT  panel4part
	CHOL_STORE4(Y0, Y1, Y2, Y3, CX)
	JMP  panel4rows

panel4part:
	LEAQ    cholmask<>(SB), AX
	VMOVUPD (AX)(SI*8), Y15
	VMASKMOVPD Y0, Y15, (CX)
	VMASKMOVPD Y1, Y15, (CX)(R10*1)
	VMASKMOVPD Y2, Y15, (CX)(R10*2)
	VMASKMOVPD Y3, Y15, (CX)(R11*1)

panel4rows:
	CHOL4_TRANSPOSE(Y0, Y1, Y2, Y3)
	CHOL_STORELAST4(Y0, Y1, Y2, Y3, R13, SI, 0, panel4window)
	JMP  panel4window

panel4done:
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

// CHOL8_TRANSPOSE transposes the 8×8 block in A..H in place, through
// Z16..Z31: lane c of the r-th register moves to lane r of the c-th.
// Three rounds of shuffles: the first pairs rows' even and odd lanes, the
// second and third gather 128-bit lane pairs. It is its own inverse.
#define CHOL8_TRANSPOSE(A, B, C, D, E, F, G, H) \
	VUNPCKLPD  B, A, Z16;            \
	VUNPCKHPD  B, A, Z17;            \
	VUNPCKLPD  D, C, Z18;            \
	VUNPCKHPD  D, C, Z19;            \
	VUNPCKLPD  F, E, Z20;            \
	VUNPCKHPD  F, E, Z21;            \
	VUNPCKLPD  H, G, Z22;            \
	VUNPCKHPD  H, G, Z23;            \
	VSHUFF64X2 $0x88, Z18, Z16, Z24; \
	VSHUFF64X2 $0xdd, Z18, Z16, Z25; \
	VSHUFF64X2 $0x88, Z19, Z17, Z26; \
	VSHUFF64X2 $0xdd, Z19, Z17, Z27; \
	VSHUFF64X2 $0x88, Z22, Z20, Z28; \
	VSHUFF64X2 $0xdd, Z22, Z20, Z29; \
	VSHUFF64X2 $0x88, Z23, Z21, Z30; \
	VSHUFF64X2 $0xdd, Z23, Z21, Z31; \
	VSHUFF64X2 $0x88, Z28, Z24, A;   \
	VSHUFF64X2 $0xdd, Z28, Z24, E;   \
	VSHUFF64X2 $0x88, Z30, Z26, B;   \
	VSHUFF64X2 $0xdd, Z30, Z26, F;   \
	VSHUFF64X2 $0x88, Z29, Z25, C;   \
	VSHUFF64X2 $0xdd, Z29, Z25, G;   \
	VSHUFF64X2 $0x88, Z31, Z27, D;   \
	VSHUFF64X2 $0xdd, Z31, Z27, H

// CHOL8_TERM is one within-block term of a window's column, in lanes:
// C -= M * L, with L broadcast from P and T as the temporary.
#define CHOL8_TERM(P, M, T, C) \
	VMULPD.BCST P, M, T; \
	VSUBPD      T, C, C

// CHOL8_COLc finishes column j0+c of a window whose columns are in A..H:
// the terms m < c in ascending m, then the division by L[j0+c][j0+c].
#define CHOL8_COL0(A) \
	VDIVPD.BCST (DX), A, A

#define CHOL8_COL1(A, B, T) \
	CHOL8_TERM((DX)(R10*1), A, T, B); \
	VDIVPD.BCST 8(DX)(R10*1), B, B

#define CHOL8_COL2(A, B, C, T) \
	CHOL8_TERM((DX)(R10*2), A, T, C);  \
	CHOL8_TERM(8(DX)(R10*2), B, T, C); \
	VDIVPD.BCST 16(DX)(R10*2), C, C

#define CHOL8_COL3(A, B, C, D, T) \
	CHOL8_TERM((DX)(R11*1), A, T, D);   \
	CHOL8_TERM(8(DX)(R11*1), B, T, D);  \
	CHOL8_TERM(16(DX)(R11*1), C, T, D); \
	VDIVPD.BCST 24(DX)(R11*1), D, D

#define CHOL8_COL4(A, B, C, D, E, T) \
	CHOL8_TERM((BX), A, T, E);   \
	CHOL8_TERM(8(BX), B, T, E);  \
	CHOL8_TERM(16(BX), C, T, E); \
	CHOL8_TERM(24(BX), D, T, E); \
	VDIVPD.BCST 32(BX), E, E

#define CHOL8_COL5(A, B, C, D, E, F, T) \
	CHOL8_TERM((BX)(R10*1), A, T, F);   \
	CHOL8_TERM(8(BX)(R10*1), B, T, F);  \
	CHOL8_TERM(16(BX)(R10*1), C, T, F); \
	CHOL8_TERM(24(BX)(R10*1), D, T, F); \
	CHOL8_TERM(32(BX)(R10*1), E, T, F); \
	VDIVPD.BCST 40(BX)(R10*1), F, F

#define CHOL8_COL6(A, B, C, D, E, F, G, T) \
	CHOL8_TERM((BX)(R10*2), A, T, G);   \
	CHOL8_TERM(8(BX)(R10*2), B, T, G);  \
	CHOL8_TERM(16(BX)(R10*2), C, T, G); \
	CHOL8_TERM(24(BX)(R10*2), D, T, G); \
	CHOL8_TERM(32(BX)(R10*2), E, T, G); \
	CHOL8_TERM(40(BX)(R10*2), F, T, G); \
	VDIVPD.BCST 48(BX)(R10*2), G, G

#define CHOL8_COL7(A, B, C, D, E, F, G, H, T) \
	CHOL8_TERM((BX)(R11*1), A, T, H);   \
	CHOL8_TERM(8(BX)(R11*1), B, T, H);  \
	CHOL8_TERM(16(BX)(R11*1), C, T, H); \
	CHOL8_TERM(24(BX)(R11*1), D, T, H); \
	CHOL8_TERM(32(BX)(R11*1), E, T, H); \
	CHOL8_TERM(40(BX)(R11*1), F, T, H); \
	CHOL8_TERM(48(BX)(R11*1), G, T, H); \
	VDIVPD.BCST 56(BX)(R11*1), H, H

// CHOL8_LANES finishes one window's columns, in Z0..Z7.
#define CHOL8_LANES \
	CHOL8_COL0(Z0);                                  \
	CHOL8_COL1(Z0, Z1, Z16);                         \
	CHOL8_COL2(Z0, Z1, Z2, Z16);                     \
	CHOL8_COL3(Z0, Z1, Z2, Z3, Z16);                 \
	CHOL8_COL4(Z0, Z1, Z2, Z3, Z4, Z16);             \
	CHOL8_COL5(Z0, Z1, Z2, Z3, Z4, Z5, Z16);         \
	CHOL8_COL6(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z16);     \
	CHOL8_COL7(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16)

// CHOL8_LANES2 finishes two windows' columns, in Z0..Z7 and Z8..Z15, one
// column of each in turn.
#define CHOL8_LANES2 \
	CHOL8_COL0(Z0);                                      \
	CHOL8_COL0(Z8);                                      \
	CHOL8_COL1(Z0, Z1, Z16);                             \
	CHOL8_COL1(Z8, Z9, Z17);                             \
	CHOL8_COL2(Z0, Z1, Z2, Z16);                         \
	CHOL8_COL2(Z8, Z9, Z10, Z17);                        \
	CHOL8_COL3(Z0, Z1, Z2, Z3, Z16);                     \
	CHOL8_COL3(Z8, Z9, Z10, Z11, Z17);                   \
	CHOL8_COL4(Z0, Z1, Z2, Z3, Z4, Z16);                 \
	CHOL8_COL4(Z8, Z9, Z10, Z11, Z12, Z17);              \
	CHOL8_COL5(Z0, Z1, Z2, Z3, Z4, Z5, Z16);             \
	CHOL8_COL5(Z8, Z9, Z10, Z11, Z12, Z13, Z17);         \
	CHOL8_COL6(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z16);         \
	CHOL8_COL6(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z17);    \
	CHOL8_COL7(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z16);     \
	CHOL8_COL7(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, Z17)

// func cholPanelAVX512(l, a *float64, n, j0 int)
//
// Finishes columns j0..j0+7 of every row i >= j0+8, given the finished
// diagonal block and the transposed copy of columns < j0. The first pass
// sweeps eight rows at a time, then four; the second finishes sixteen
// rows at a time (two windows), then eight.
TEXT ·cholPanelAVX512(SB), NOSPLIT, $0-32
	MOVQ l+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ j0+24(FP), R9
	MOVQ R8, R10
	SHLQ $3, R10              // R10 = row stride in bytes
	LEAQ (R10)(R10*2), R11    // R11 = 3 * stride

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
	ADDQ $8, R12
	JMP  panel8x8

panel8x4:
	CHOL_WINDOW(4, DX, panel8lanes, panel8x4sweep)

panel8x4sweep:
	CHOL_ROWAT(AX)
	LEAQ (R13)(R9*8), R13     // R13 = &a[AX][j0]
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
	// R14 = &l[window][j0] now.
	CHOL_STORELAST4(Z0, Z1, Z2, Z3, R14, DX, 0, panel8x4)
	JMP  panel8x4

panel8lanes:
	MOVQ R9, AX
	IMULQ R8, AX
	ADDQ R9, AX
	LEAQ (DI)(AX*8), DX       // DX = &l[j0][j0]
	LEAQ (DX)(R10*4), BX      // BX = &l[j0+4][j0]
	LEAQ 8(R9), R12           // R12 = the next row to finish

panel8pair:
	// Rows i..i+15: R13 = &l[i][j0], R14 = &l[i+4][j0] and SI the rows
	// 8..15 in turn; CX = &l[j0][i] and AX = &l[j0+4][i].
	LEAQ 16(R12), AX
	CMPQ AX, R8
	JGT  panel8single
	MOVQ R12, AX
	IMULQ R8, AX
	ADDQ R9, AX
	LEAQ (DI)(AX*8), R13
	LEAQ (R13)(R10*4), R14
	MOVQ R12, AX
	SUBQ R9, AX
	LEAQ (DX)(AX*8), CX
	LEAQ (CX)(R10*4), AX
	CHOL_LOAD4(R13, Z0, Z1, Z2, Z3)
	CHOL_LOAD4(R14, Z4, Z5, Z6, Z7)
	LEAQ (R13)(R10*8), SI
	CHOL_LOAD4(SI, Z8, Z9, Z10, Z11)
	LEAQ (R14)(R10*8), SI
	CHOL_LOAD4(SI, Z12, Z13, Z14, Z15)
	CHOL8_TRANSPOSE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	CHOL8_TRANSPOSE(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	CHOL8_LANES2
	CHOL_STORE4(Z0, Z1, Z2, Z3, CX)
	CHOL_STORE4(Z4, Z5, Z6, Z7, AX)
	LEAQ 64(CX), CX
	LEAQ 64(AX), AX
	CHOL_STORE4(Z8, Z9, Z10, Z11, CX)
	CHOL_STORE4(Z12, Z13, Z14, Z15, AX)
	CHOL8_TRANSPOSE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	CHOL8_TRANSPOSE(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	CHOL_STORE4(Z0, Z1, Z2, Z3, R13)
	CHOL_STORE4(Z4, Z5, Z6, Z7, R14)
	CHOL_STORE4(Z12, Z13, Z14, Z15, SI)
	LEAQ (R13)(R10*8), SI
	CHOL_STORE4(Z8, Z9, Z10, Z11, SI)
	ADDQ $16, R12
	JMP  panel8pair

panel8single:
	// K1 selects every lane until the last window.
	MOVL  $0xff, AX
	KMOVW AX, K1

panel8window:
	// One window, of which the last SI rows are stored, K1 selecting
	// their lanes of the columns: R13 = &l[AX][j0] and R14 = &l[AX+4][j0]
	// hold the rows, CX = &l[j0][AX] and AX = &l[j0+4][AX] their
	// transposed positions.
	CHOL_WINDOW(8, SI, panel8done, panel8win)
	MOVQ $8, CX
	SUBQ SI, CX
	MOVL $0xff, R13
	SHLL CX, R13
	KMOVW R13, K1

panel8win:
	MOVQ AX, R13
	IMULQ R8, R13
	ADDQ R9, R13
	LEAQ (DI)(R13*8), R13
	LEAQ (R13)(R10*4), R14
	SUBQ R9, AX
	LEAQ (DX)(AX*8), CX
	LEAQ (CX)(R10*4), AX
	CHOL_LOAD4(R13, Z0, Z1, Z2, Z3)
	CHOL_LOAD4(R14, Z4, Z5, Z6, Z7)
	CHOL8_TRANSPOSE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	CHOL8_LANES
	VMOVUPD Z0, K1, (CX)
	VMOVUPD Z1, K1, (CX)(R10*1)
	VMOVUPD Z2, K1, (CX)(R10*2)
	VMOVUPD Z3, K1, (CX)(R11*1)
	VMOVUPD Z4, K1, (AX)
	VMOVUPD Z5, K1, (AX)(R10*1)
	VMOVUPD Z6, K1, (AX)(R10*2)
	VMOVUPD Z7, K1, (AX)(R11*1)
	CHOL8_TRANSPOSE(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	CHOL_STORELAST4(Z4, Z5, Z6, Z7, R14, SI, 0, panel8window)
	CHOL_STORELAST4(Z0, Z1, Z2, Z3, R13, SI, 4, panel8window)
	JMP  panel8window

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

// The dot-row kernels of SyrkInto and PairwiseSquaredDistancesUpperInto
// take (out, xi, xt, nj *float64, ni float64, m, d, n int) and fill one
// row segment: out[c] = ⟨xi, x_{j0+c}⟩ for c < m, where xi is the row's d
// features and xt = &xT[0][j0] points into the d×n transposed copy of x,
// whose row k holds feature k of every row. Lanes run across c, never
// along k: each lane starts at zero and adds xi[k]·xT[k][j0+c] in
// ascending k, a VMULPD then a separate VADDPD, the Go loop's chain.
// With nj = &norms[j0] non-nil each lane then takes the distance
// epilogue (DOT_DIST); with nj nil it stores the dot itself. Register
// plan: DI = out, SI = xi, DX = xt, R8 = nj, CX = entries left, R9 = d,
// R10 = n in bytes (the stride of xT), BX = the byte offset of the
// current chunk in out, xt and nj alike; R11 walks the chunk down xT, R12
// along xi, R13 counts k down.

// DOT_DIST is the distance epilogue of one lane vector: A = (ni + nj) −
// 2·A, then the clamp: VMAXPD keeps its second source unless the first
// is greater, so with ZERO first a negative lane becomes 0 while NaN and
// −0 pass through, as the Go loop's `if v < 0 { v = 0 }` leaves them. N
// is nj's lanes (a register or memory), NI ni broadcast, T a temporary.
#define DOT_DIST(A, N, NI, ZERO, T) \
	VADDPD N, NI, T; \
	VADDPD A, A, A;  \
	VSUBPD A, T, A;  \
	VMAXPD A, ZERO, A

// DOT_KSTART points R11 at the chunk in row 0 of xT, R12 at xi[0] and
// sets R13 = d.
#define DOT_KSTART \
	LEAQ (DX)(BX*1), R11; \
	MOVQ SI, R12;         \
	MOVQ R9, R13

// DOT_KNEXT steps R11 and R12 to the next k and counts it off.
#define DOT_KNEXT \
	ADDQ $8, R12;  \
	ADDQ R10, R11; \
	DECQ R13

// DOT_LANE is one k step of one lane vector: A += B·xT[k][chunk + OFF],
// with xi[k] broadcast in B and T as the product.
#define DOT_LANE(OFF, B, T, A) \
	VMULPD OFF(R11), B, T; \
	VADDPD T, A, A

// func dotRowAVX512(out, xi, xt, nj *float64, ni float64, m, d, n int)
//
// Thirty-two entries per sweep in four ZMM accumulators, then eight in
// one, then the last m mod 8 under the mask K1.
TEXT ·dotRowAVX512(SB), NOSPLIT, $0-64
	MOVQ         out+0(FP), DI
	MOVQ         xi+8(FP), SI
	MOVQ         xt+16(FP), DX
	MOVQ         nj+24(FP), R8
	VBROADCASTSD ni+32(FP), Z9
	MOVQ         m+40(FP), CX
	MOVQ         d+48(FP), R9
	MOVQ         n+56(FP), R10
	SHLQ         $3, R10
	VXORPD       X10, X10, X10 // Z10 = 0, the clamp
	XORQ         BX, BX

dot512x32:
	CMPQ   CX, $32
	JLT    dot512x8
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	DOT_KSTART

dot512x32k:
	VBROADCASTSD (R12), Z4
	DOT_LANE(0, Z4, Z5, Z0)
	DOT_LANE(64, Z4, Z6, Z1)
	DOT_LANE(128, Z4, Z7, Z2)
	DOT_LANE(192, Z4, Z8, Z3)
	DOT_KNEXT
	JNZ          dot512x32k
	TESTQ        R8, R8
	JZ           dot512x32store
	LEAQ         (R8)(BX*1), R14
	DOT_DIST(Z0, (R14), Z9, Z10, Z5)
	DOT_DIST(Z1, 64(R14), Z9, Z10, Z6)
	DOT_DIST(Z2, 128(R14), Z9, Z10, Z7)
	DOT_DIST(Z3, 192(R14), Z9, Z10, Z8)

dot512x32store:
	LEAQ    (DI)(BX*1), R14
	VMOVUPD Z0, (R14)
	VMOVUPD Z1, 64(R14)
	VMOVUPD Z2, 128(R14)
	VMOVUPD Z3, 192(R14)
	ADDQ    $256, BX
	SUBQ    $32, CX
	JMP     dot512x32

dot512x8:
	CMPQ   CX, $8
	JLT    dot512tail
	VXORPD X0, X0, X0
	DOT_KSTART

dot512x8k:
	VBROADCASTSD (R12), Z4
	DOT_LANE(0, Z4, Z5, Z0)
	DOT_KNEXT
	JNZ          dot512x8k
	TESTQ        R8, R8
	JZ           dot512x8store
	DOT_DIST(Z0, (R8)(BX*1), Z9, Z10, Z5)

dot512x8store:
	VMOVUPD Z0, (DI)(BX*1)
	ADDQ    $64, BX
	SUBQ    $8, CX
	JMP     dot512x8

dot512tail:
	// K1 selects the first CX lanes; the masked lanes load zeros and are
	// never stored, and a masked load does not fault past the end of xT.
	TESTQ  CX, CX
	JZ     dot512done
	MOVL   $1, AX
	SHLL   CX, AX
	DECL   AX
	KMOVW  AX, K1
	VXORPD X0, X0, X0
	DOT_KSTART

dot512tailk:
	VBROADCASTSD (R12), Z4
	VMULPD.Z     (R11), Z4, K1, Z5
	VADDPD       Z5, Z0, Z0
	DOT_KNEXT
	JNZ          dot512tailk
	TESTQ        R8, R8
	JZ           dot512tailstore
	VMOVUPD.Z    (R8)(BX*1), K1, Z6
	DOT_DIST(Z0, Z6, Z9, Z10, Z5)

dot512tailstore:
	VMOVUPD Z0, K1, (DI)(BX*1)

dot512done:
	VZEROUPPER
	RET

// dotmask<> holds four quadwords with every bit set, then four zero
// ones: the four at byte 32 − 8*r select the first r lanes, for
// VMASKMOVPD.
DATA dotmask<>+0(SB)/8, $-1
DATA dotmask<>+8(SB)/8, $-1
DATA dotmask<>+16(SB)/8, $-1
DATA dotmask<>+24(SB)/8, $-1
GLOBL dotmask<>(SB), RODATA|NOPTR, $64

// func dotRowAVX2(out, xi, xt, nj *float64, ni float64, m, d, n int)
//
// Sixteen entries per sweep in four YMM accumulators, then four in one,
// then the last m mod 4 under a VMASKMOVPD mask.
TEXT ·dotRowAVX2(SB), NOSPLIT, $0-64
	MOVQ         out+0(FP), DI
	MOVQ         xi+8(FP), SI
	MOVQ         xt+16(FP), DX
	MOVQ         nj+24(FP), R8
	VBROADCASTSD ni+32(FP), Y9
	MOVQ         m+40(FP), CX
	MOVQ         d+48(FP), R9
	MOVQ         n+56(FP), R10
	SHLQ         $3, R10
	VXORPD       Y10, Y10, Y10 // the clamp
	XORQ         BX, BX

dot256x16:
	CMPQ   CX, $16
	JLT    dot256x4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	DOT_KSTART

dot256x16k:
	VBROADCASTSD (R12), Y4
	DOT_LANE(0, Y4, Y5, Y0)
	DOT_LANE(32, Y4, Y6, Y1)
	DOT_LANE(64, Y4, Y7, Y2)
	DOT_LANE(96, Y4, Y8, Y3)
	DOT_KNEXT
	JNZ          dot256x16k
	TESTQ        R8, R8
	JZ           dot256x16store
	LEAQ         (R8)(BX*1), R14
	DOT_DIST(Y0, (R14), Y9, Y10, Y5)
	DOT_DIST(Y1, 32(R14), Y9, Y10, Y6)
	DOT_DIST(Y2, 64(R14), Y9, Y10, Y7)
	DOT_DIST(Y3, 96(R14), Y9, Y10, Y8)

dot256x16store:
	LEAQ    (DI)(BX*1), R14
	VMOVUPD Y0, (R14)
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, 64(R14)
	VMOVUPD Y3, 96(R14)
	ADDQ    $128, BX
	SUBQ    $16, CX
	JMP     dot256x16

dot256x4:
	CMPQ   CX, $4
	JLT    dot256tail
	VXORPD Y0, Y0, Y0
	DOT_KSTART

dot256x4k:
	VBROADCASTSD (R12), Y4
	DOT_LANE(0, Y4, Y5, Y0)
	DOT_KNEXT
	JNZ          dot256x4k
	TESTQ        R8, R8
	JZ           dot256x4store
	DOT_DIST(Y0, (R8)(BX*1), Y9, Y10, Y5)

dot256x4store:
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	SUBQ    $4, CX
	JMP     dot256x4

dot256tail:
	// Y11 selects the first CX lanes; VMASKMOVPD loads zeros into the
	// others, stores only the selected ones and does not fault past the
	// end of xT.
	TESTQ      CX, CX
	JZ         dot256done
	SHLQ       $3, CX
	NEGQ       CX
	LEAQ       dotmask<>+32(SB), AX
	VMOVUPD    (AX)(CX*1), Y11
	VXORPD     Y0, Y0, Y0
	DOT_KSTART

dot256tailk:
	VBROADCASTSD (R12), Y4
	VMASKMOVPD   (R11), Y11, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0
	DOT_KNEXT
	JNZ          dot256tailk
	TESTQ        R8, R8
	JZ           dot256tailstore
	LEAQ         (R8)(BX*1), R14
	VMASKMOVPD   (R14), Y11, Y6
	DOT_DIST(Y0, Y6, Y9, Y10, Y5)

dot256tailstore:
	LEAQ       (DI)(BX*1), R14
	VMASKMOVPD Y0, Y11, (R14)

dot256done:
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
