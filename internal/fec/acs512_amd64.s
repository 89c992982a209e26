#include "textflag.h"

// VPERMPD indices that spread bm over a group's butterflies: lane k of
// group g's vector is branchIdx[8g+k].
DATA acsBranch<>+0(SB)/8, $0
DATA acsBranch<>+8(SB)/8, $2
DATA acsBranch<>+16(SB)/8, $0
DATA acsBranch<>+24(SB)/8, $2
DATA acsBranch<>+32(SB)/8, $3
DATA acsBranch<>+40(SB)/8, $1
DATA acsBranch<>+48(SB)/8, $3
DATA acsBranch<>+56(SB)/8, $1
DATA acsBranch<>+64(SB)/8, $3
DATA acsBranch<>+72(SB)/8, $1
DATA acsBranch<>+80(SB)/8, $3
DATA acsBranch<>+88(SB)/8, $1
DATA acsBranch<>+96(SB)/8, $0
DATA acsBranch<>+104(SB)/8, $2
DATA acsBranch<>+112(SB)/8, $0
DATA acsBranch<>+120(SB)/8, $2
DATA acsBranch<>+128(SB)/8, $1
DATA acsBranch<>+136(SB)/8, $3
DATA acsBranch<>+144(SB)/8, $1
DATA acsBranch<>+152(SB)/8, $3
DATA acsBranch<>+160(SB)/8, $2
DATA acsBranch<>+168(SB)/8, $0
DATA acsBranch<>+176(SB)/8, $2
DATA acsBranch<>+184(SB)/8, $0
DATA acsBranch<>+192(SB)/8, $2
DATA acsBranch<>+200(SB)/8, $0
DATA acsBranch<>+208(SB)/8, $2
DATA acsBranch<>+216(SB)/8, $0
DATA acsBranch<>+224(SB)/8, $1
DATA acsBranch<>+232(SB)/8, $3
DATA acsBranch<>+240(SB)/8, $1
DATA acsBranch<>+248(SB)/8, $3
GLOBL acsBranch<>(SB), RODATA|NOPTR, $256

// The sign masks of acs_amd64.s's branch metrics, each YMM half twice.
DATA acsSignA<>+0(SB)/8, $0x8000000000000000
DATA acsSignA<>+8(SB)/8, $0x8000000000000000
DATA acsSignA<>+16(SB)/8, $0
DATA acsSignA<>+24(SB)/8, $0
DATA acsSignA<>+32(SB)/8, $0x8000000000000000
DATA acsSignA<>+40(SB)/8, $0x8000000000000000
DATA acsSignA<>+48(SB)/8, $0
DATA acsSignA<>+56(SB)/8, $0
GLOBL acsSignA<>(SB), RODATA|NOPTR, $64

DATA acsSignB<>+0(SB)/8, $0x8000000000000000
DATA acsSignB<>+8(SB)/8, $0
DATA acsSignB<>+16(SB)/8, $0x8000000000000000
DATA acsSignB<>+24(SB)/8, $0
DATA acsSignB<>+32(SB)/8, $0x8000000000000000
DATA acsSignB<>+40(SB)/8, $0
DATA acsSignB<>+48(SB)/8, $0x8000000000000000
DATA acsSignB<>+56(SB)/8, $0
GLOBL acsSignB<>(SB), RODATA|NOPTR, $64

// VPERMI2PD indices that take the even (a) and the odd (b) metrics of
// sixteen states held in two ZMM registers.
DATA acsEven<>+0(SB)/8, $0
DATA acsEven<>+8(SB)/8, $2
DATA acsEven<>+16(SB)/8, $4
DATA acsEven<>+24(SB)/8, $6
DATA acsEven<>+32(SB)/8, $8
DATA acsEven<>+40(SB)/8, $10
DATA acsEven<>+48(SB)/8, $12
DATA acsEven<>+56(SB)/8, $14
GLOBL acsEven<>(SB), RODATA|NOPTR, $64

DATA acsOdd<>+0(SB)/8, $1
DATA acsOdd<>+8(SB)/8, $3
DATA acsOdd<>+16(SB)/8, $5
DATA acsOdd<>+24(SB)/8, $7
DATA acsOdd<>+32(SB)/8, $9
DATA acsOdd<>+40(SB)/8, $11
DATA acsOdd<>+48(SB)/8, $13
DATA acsOdd<>+56(SB)/8, $15
GLOBL acsOdd<>(SB), RODATA|NOPTR, $64

// func acsChunkAVX512(m *[64]float64, surv []uint64, ab *[512]float64)
//
// The 64 path metrics live in eight ZMM registers, state 8r+k in lane k
// of the r-th: Z0-Z7 before an even step, Z8-Z15 before an odd one, so
// the loop runs two steps per iteration and m is read on entry and
// written on exit only.
//
// A step first forms bm = [-la-lb, -la+lb, la-lb, la+lb] in the low lanes
// of Z21 from the broadcast LLRs and the sign masks in Z22 and Z23. Group
// g (0..3) then runs the butterflies of next-state pairs j = 8g..8g+7
// from the old registers OLO and OHI, which hold states 16g..16g+15:
// VPERMI2PD splits them into a_j = mp[2j] (Z24) and
// b_j = mp[2j+1] (Z25), and VPERMPD with the indices in VB spreads
// v_j = bm[branchIdx[j]] (Z26). As in acsStep, m0 = a±v, m1 = b∓v and
// d = m1-m0, each with the same operands in the same order; VPMOVQ2M
// takes d's sign bits, VBLENDMPD keeps m1 where they are set, and KMOVB
// stores the same bits as the survivor word's byte g (states j) and byte
// 4+g (states j+32). The new metrics of states 8g.. and 32+8g.. go to NLO
// and NHI.
#define GROUP(g, OLO, OHI, VB, NLO, NHI, S) \
	VMOVDQU64 acsEven<>(SB), Z24; \
	VPERMI2PD OHI, OLO, Z24;      \
	VMOVDQU64 acsOdd<>(SB), Z25;  \
	VPERMI2PD OHI, OLO, Z25;      \
	VPERMPD   Z21, VB, Z26;       \
	VADDPD    Z26, Z24, Z27;      \
	VSUBPD    Z26, Z25, Z28;      \
	VSUBPD    Z27, Z28, Z29;      \
	VPMOVQ2M  Z29, K1;            \
	VBLENDMPD Z28, Z27, K1, NLO;  \
	KMOVB     K1, (S+g)(DI);      \
	VSUBPD    Z26, Z24, Z27;      \
	VADDPD    Z26, Z25, Z28;      \
	VSUBPD    Z27, Z28, Z29;      \
	VPMOVQ2M  Z29, K2;            \
	VBLENDMPD Z28, Z27, K2, NHI;  \
	KMOVB     K2, (S+4+g)(DI)

#define BRANCH(AB) \
	VBROADCASTSD AB(SI), Z30;     \
	VBROADCASTSD (AB+8)(SI), Z31; \
	VXORPD       Z22, Z30, Z30;   \
	VXORPD       Z23, Z31, Z31;   \
	VADDPD       Z31, Z30, Z21

// EVEN runs a step from Z0-Z7 into Z8-Z15, ODD one back.
#define EVEN(AB, S) \
	BRANCH(AB);                              \
	GROUP(0, Z0, Z1, Z16, Z8, Z12, S);       \
	GROUP(1, Z2, Z3, Z17, Z9, Z13, S);       \
	GROUP(2, Z4, Z5, Z18, Z10, Z14, S);      \
	GROUP(3, Z6, Z7, Z19, Z11, Z15, S)

#define ODD(AB, S) \
	BRANCH(AB);                              \
	GROUP(0, Z8, Z9, Z16, Z0, Z4, S);        \
	GROUP(1, Z10, Z11, Z17, Z1, Z5, S);      \
	GROUP(2, Z12, Z13, Z18, Z2, Z6, S);      \
	GROUP(3, Z14, Z15, Z19, Z3, Z7, S)

TEXT ·acsChunkAVX512(SB), NOSPLIT, $0-40
	MOVQ      m+0(FP), AX
	MOVQ      surv_base+8(FP), DI
	MOVQ      surv_len+16(FP), CX
	MOVQ      ab+32(FP), SI
	VMOVUPD   0(AX), Z0
	VMOVUPD   64(AX), Z1
	VMOVUPD   128(AX), Z2
	VMOVUPD   192(AX), Z3
	VMOVUPD   256(AX), Z4
	VMOVUPD   320(AX), Z5
	VMOVUPD   384(AX), Z6
	VMOVUPD   448(AX), Z7
	VMOVDQU64 acsBranch<>+0(SB), Z16
	VMOVDQU64 acsBranch<>+64(SB), Z17
	VMOVDQU64 acsBranch<>+128(SB), Z18
	VMOVDQU64 acsBranch<>+192(SB), Z19
	VMOVDQU64 acsSignA<>(SB), Z22
	VMOVDQU64 acsSignB<>(SB), Z23

pairs:
	CMPQ CX, $2
	JLT  last
	EVEN(0, 0)
	ODD(16, 8)
	ADDQ $32, SI
	ADDQ $16, DI
	SUBQ $2, CX
	JMP  pairs

last:
	TESTQ CX, CX
	JZ    done
	EVEN(0, 0)
	VMOVUPD Z8, 0(AX)
	VMOVUPD Z9, 64(AX)
	VMOVUPD Z10, 128(AX)
	VMOVUPD Z11, 192(AX)
	VMOVUPD Z12, 256(AX)
	VMOVUPD Z13, 320(AX)
	VMOVUPD Z14, 384(AX)
	VMOVUPD Z15, 448(AX)
	VZEROUPPER
	RET

done:
	VMOVUPD Z0, 0(AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, 128(AX)
	VMOVUPD Z3, 192(AX)
	VMOVUPD Z4, 256(AX)
	VMOVUPD Z5, 320(AX)
	VMOVUPD Z6, 384(AX)
	VMOVUPD Z7, 448(AX)
	VZEROUPPER
	RET
