#include "textflag.h"

// func acsAVX2(mp, np *[64]float64, bm *[4]float64) uint64
//
// Group g (0..7) runs the butterflies of next-state pairs j = 4g..4g+3 in
// the four lanes of a YMM register:
//
//	Y2 = [a_4g .. a_4g+3]   Y3 = [b_4g .. b_4g+3]   V = [v_4g .. v_4g+3]
//
// with a_j = mp[2j], b_j = mp[2j+1] and v_j = bm[branchIdx[j]]. Two
// 128-bit loads with an insert each give [a_4g, b_4g, a_4g+2, b_4g+2] and
// [a_4g+1, b_4g+1, a_4g+3, b_4g+3]; the in-lane unpacks then yield a and b
// in state order. V is VPERMPD of bm with the immediate
// Σ branchIdx[4g+k] << 2k, which takes only four values (0x88, 0x77,
// 0xDD, 0x22), so the four permutations are made once, before the groups.
//
// As in acsStep, m0 = a±v, m1 = b∓v and d = m1-m0, each with the same
// operands in the same order; a lane keeps m1 exactly when d's sign bit is
// set, which is what VBLENDVPD selects on and VMOVMSKPD reads off as the
// survivor bits.
#define GROUP(g, V) \
	VMOVUPD     (g*64)(SI), X0;          \
	VINSERTF128 $1, (g*64+32)(SI), Y0, Y0; \
	VMOVUPD     (g*64+16)(SI), X1;       \
	VINSERTF128 $1, (g*64+48)(SI), Y1, Y1; \
	VUNPCKLPD   Y1, Y0, Y2;              \
	VUNPCKHPD   Y1, Y0, Y3;              \
	VADDPD      V, Y2, Y4;               \
	VSUBPD      V, Y3, Y5;               \
	VSUBPD      Y4, Y5, Y6;              \
	VBLENDVPD   Y6, Y5, Y4, Y7;          \
	VMOVUPD     Y7, (g*32)(DI);          \
	VMOVMSKPD   Y6, R8;                  \
	SHLQ        $(g*4), R8;              \
	ORQ         R8, AX;                  \
	VSUBPD      V, Y2, Y2;               \
	VADDPD      V, Y3, Y3;               \
	VSUBPD      Y2, Y3, Y6;              \
	VBLENDVPD   Y6, Y3, Y2, Y7;          \
	VMOVUPD     Y7, (256+g*32)(DI);      \
	VMOVMSKPD   Y6, R8;                  \
	SHLQ        $(32+g*4), R8;           \
	ORQ         R8, AX

TEXT ·acsAVX2(SB), NOSPLIT, $0-32
	MOVQ    mp+0(FP), SI
	MOVQ    np+8(FP), DI
	MOVQ    bm+16(FP), BX
	VMOVUPD (BX), Y15
	VPERMPD $0x88, Y15, Y11
	VPERMPD $0x77, Y15, Y12
	VPERMPD $0xDD, Y15, Y13
	VPERMPD $0x22, Y15, Y14
	XORQ    AX, AX

	GROUP(0, Y11)
	GROUP(1, Y12)
	GROUP(2, Y12)
	GROUP(3, Y11)
	GROUP(4, Y13)
	GROUP(5, Y14)
	GROUP(6, Y14)
	GROUP(7, Y13)

	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET
