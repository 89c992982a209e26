#include "textflag.h"

// Sign masks that turn two broadcast LLRs into the branch metrics
// bm = [-la-lb, -la+lb, la-lb, la+lb] with one add: [-la, -la, la, la] +
// [-lb, lb, -lb, lb], each x - y being x + (-y) exactly.
DATA acsSignA<>+0(SB)/8, $0x8000000000000000
DATA acsSignA<>+8(SB)/8, $0x8000000000000000
DATA acsSignA<>+16(SB)/8, $0
DATA acsSignA<>+24(SB)/8, $0
GLOBL acsSignA<>(SB), RODATA|NOPTR, $32

DATA acsSignB<>+0(SB)/8, $0x8000000000000000
DATA acsSignB<>+8(SB)/8, $0
DATA acsSignB<>+16(SB)/8, $0x8000000000000000
DATA acsSignB<>+24(SB)/8, $0
GLOBL acsSignB<>(SB), RODATA|NOPTR, $32

// func acsChunkAVX2(m *[64]float64, surv []uint64, ab *[512]float64)
//
// Each step reads the path metrics from MP and writes the new ones to NP;
// steps alternate between m and a 64-metric array in the frame, two per
// loop iteration, and an odd last step's metrics are copied back to m.
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
// 0xDD, 0x22), so the four permutations are made once per step, before
// the groups.
//
// As in acsStep, m0 = a±v, m1 = b∓v and d = m1-m0, each with the same
// operands in the same order; a lane keeps m1 exactly when d's sign bit is
// set, which is what VBLENDVPD selects on and VMOVMSKPD reads off as the
// survivor bits, gathered in AX.
#define GROUP(g, V, MP, NP) \
	VMOVUPD     (g*64)(MP), X0;            \
	VINSERTF128 $1, (g*64+32)(MP), Y0, Y0; \
	VMOVUPD     (g*64+16)(MP), X1;         \
	VINSERTF128 $1, (g*64+48)(MP), Y1, Y1; \
	VUNPCKLPD   Y1, Y0, Y2;                \
	VUNPCKHPD   Y1, Y0, Y3;                \
	VADDPD      V, Y2, Y4;                 \
	VSUBPD      V, Y3, Y5;                 \
	VSUBPD      Y4, Y5, Y6;                \
	VBLENDVPD   Y6, Y5, Y4, Y7;            \
	VMOVUPD     Y7, (g*32)(NP);            \
	VMOVMSKPD   Y6, R8;                    \
	SHLQ        $(g*4), R8;                \
	ORQ         R8, AX;                    \
	VSUBPD      V, Y2, Y2;                 \
	VADDPD      V, Y3, Y3;                 \
	VSUBPD      Y2, Y3, Y6;                \
	VBLENDVPD   Y6, Y3, Y2, Y7;            \
	VMOVUPD     Y7, (256+g*32)(NP);        \
	VMOVMSKPD   Y6, R8;                    \
	SHLQ        $(32+g*4), R8;             \
	ORQ         R8, AX

// STEP runs the step whose LLRs are at AB(SI) and whose survivor word
// goes to S(DI). Y9 and Y10 hold the sign masks.
#define STEP(MP, NP, AB, S) \
	VBROADCASTSD AB(SI), Y15;      \
	VBROADCASTSD (AB+8)(SI), Y8;   \
	VXORPD       Y9, Y15, Y15;     \
	VXORPD       Y10, Y8, Y8;      \
	VADDPD       Y8, Y15, Y15;     \
	VPERMPD      $0x88, Y15, Y11;  \
	VPERMPD      $0x77, Y15, Y12;  \
	VPERMPD      $0xDD, Y15, Y13;  \
	VPERMPD      $0x22, Y15, Y14;  \
	XORQ         AX, AX;           \
	GROUP(0, Y11, MP, NP);         \
	GROUP(1, Y12, MP, NP);         \
	GROUP(2, Y12, MP, NP);         \
	GROUP(3, Y11, MP, NP);         \
	GROUP(4, Y13, MP, NP);         \
	GROUP(5, Y14, MP, NP);         \
	GROUP(6, Y14, MP, NP);         \
	GROUP(7, Y13, MP, NP);         \
	MOVQ         AX, S(DI)

#define COPY(off) \
	VMOVUPD (off)(R10), Y0; \
	VMOVUPD Y0, (off)(R9)

TEXT ·acsChunkAVX2(SB), $512-40
	MOVQ    m+0(FP), R9
	LEAQ    0(SP), R10
	MOVQ    surv_base+8(FP), DI
	MOVQ    surv_len+16(FP), CX
	MOVQ    ab+32(FP), SI
	VMOVUPD acsSignA<>(SB), Y9
	VMOVUPD acsSignB<>(SB), Y10

pairs:
	CMPQ CX, $2
	JLT  last
	STEP(R9, R10, 0, 0)
	STEP(R10, R9, 16, 8)
	ADDQ $32, SI
	ADDQ $16, DI
	SUBQ $2, CX
	JMP  pairs

last:
	TESTQ CX, CX
	JZ    done
	STEP(R9, R10, 0, 0)
	COPY(0)
	COPY(32)
	COPY(64)
	COPY(96)
	COPY(128)
	COPY(160)
	COPY(192)
	COPY(224)
	COPY(256)
	COPY(288)
	COPY(320)
	COPY(352)
	COPY(384)
	COPY(416)
	COPY(448)
	COPY(480)

done:
	VZEROUPPER
	RET
