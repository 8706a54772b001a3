//go:build amd64 && !purego

#include "textflag.h"

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

// func cpuHasAVX2FMA() bool
//
// CPUID leaf 1 ECX: FMA (bit 12), OSXSAVE (27), AVX (28); XGETBV: the OS
// saves XMM and YMM state; CPUID leaf 7 EBX: AVX2 (bit 5).
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   no

	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18001000, CX
	CMPL  CX, $0x18001000
	JNE   no

	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no

	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x20, BX
	JZ    no
	MOVB  $1, ret+0(FP)

no:
	RET

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
