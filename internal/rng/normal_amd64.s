#include "textflag.h"

// VPERMT2D indices that take the low dword of each of sixteen qwords held
// in two ZMM registers.
DATA zigEven<>+0(SB)/4, $0
DATA zigEven<>+4(SB)/4, $2
DATA zigEven<>+8(SB)/4, $4
DATA zigEven<>+12(SB)/4, $6
DATA zigEven<>+16(SB)/4, $8
DATA zigEven<>+20(SB)/4, $10
DATA zigEven<>+24(SB)/4, $12
DATA zigEven<>+28(SB)/4, $14
DATA zigEven<>+32(SB)/4, $16
DATA zigEven<>+36(SB)/4, $18
DATA zigEven<>+40(SB)/4, $20
DATA zigEven<>+44(SB)/4, $22
DATA zigEven<>+48(SB)/4, $24
DATA zigEven<>+52(SB)/4, $26
DATA zigEven<>+56(SB)/4, $28
DATA zigEven<>+60(SB)/4, $30
GLOBL zigEven<>(SB), RODATA|NOPTR, $64

// VPERMQ indices that reverse the eight qwords of a ZMM register.
DATA zigReverse<>+0(SB)/8, $7
DATA zigReverse<>+8(SB)/8, $6
DATA zigReverse<>+16(SB)/8, $5
DATA zigReverse<>+24(SB)/8, $4
DATA zigReverse<>+32(SB)/8, $3
DATA zigReverse<>+40(SB)/8, $2
DATA zigReverse<>+48(SB)/8, $1
DATA zigReverse<>+56(SB)/8, $0
GLOBL zigReverse<>(SB), RODATA|NOPTR, $64

// func stepAVX512(out []uint64, fv, tv []int64)
//
// With n = len(out) and p counting down from n in steps of eight, each
// vector adds tv[p-8:p] into fv[p-8:p], stores the sums back and, lanes
// reversed, to out[n-p:]. The last p < 8 words go one at a time: masked
// loads would wait for the stores before them to retire.
TEXT ·stepAVX512(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ fv_base+24(FP), SI
	MOVQ tv_base+48(FP), DX
	VMOVDQU64 zigReverse<>(SB), Z31
	MOVQ CX, AX
	LEAQ (DI)(CX*8), DI // out[n-p] is at DI - 8p

step8:
	CMPQ AX, $8
	JLT  step1
	VMOVDQU64 -64(SI)(AX*8), Z0
	VPADDQ    -64(DX)(AX*8), Z0, Z0
	VMOVDQU64 Z0, -64(SI)(AX*8)
	VPERMQ    Z0, Z31, Z0
	MOVQ      AX, BX
	NEGQ      BX
	VMOVDQU64 Z0, (DI)(BX*8)
	SUBQ      $8, AX
	JMP       step8

step1:
	TESTQ AX, AX
	JEQ   stepdone
	MOVQ  -8(SI)(AX*8), BX
	ADDQ  -8(DX)(AX*8), BX
	MOVQ  BX, -8(SI)(AX*8)
	MOVQ  AX, CX
	NEGQ  CX
	MOVQ  BX, (DI)(CX*8)
	DECQ  AX
	JMP   step1

stepdone:
	VZEROUPPER
	RET

// LOOKUP leaves in R the entries of the 128-entry table held in T0-T7
// (sixteen dwords to a register) at the indices i in Z2: VPERMI2D picks
// from each pair of registers by i's low five bits, K1 (i&32) and K2
// (i&64) select among the four picks.
#define LOOKUP(T0, T1, T2, T3, T4, T5, T6, T7, R) \
	VMOVDQA64 Z2, R;              \
	VPERMI2D  T1, T0, R;          \
	VMOVDQA64 Z2, Z5;             \
	VPERMI2D  T3, T2, Z5;         \
	VMOVDQA64 Z2, Z6;             \
	VPERMI2D  T5, T4, Z6;         \
	VMOVDQA64 Z2, Z7;             \
	VPERMI2D  T7, T6, Z7;         \
	VPBLENDMD Z5, R, K1, R;       \
	VPBLENDMD Z7, Z6, K1, Z6;     \
	VPBLENDMD Z6, R, K2, R

// func scanAVX512(w *[256]uint64, n int, y *[256]float64, acc *[4]uint64, sd float64)
//
// kn sits in Z16-Z23 and wn in Z24-Z31 for the whole call. Iteration g
// loads words 16g..16g+15, keeps those below n in K7, takes bits 31..62
// of each as j (Z0), i = j&0x7f (Z2) and |j| (Z3), looks kn[i] and wn[i]
// up, and writes the sixteen bits of |j| < kn[i] on the kept lanes to
// acc's bits 16g..16g+15 and (float64(wn[i])·float64(j))·sd to
// y[16g:16g+16]. Those first operands are the ones the Go compiler gives
// rectanglesGo's products, which decide which NaN a NaN pair returns.
// The iterations depend on one another only through the word index.
TEXT ·scanAVX512(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI
	MOVQ n+8(FP), R8
	MOVQ y+16(FP), DI
	MOVQ acc+24(FP), R9
	VBROADCASTSD sd+32(FP), Z15

	VMOVDQU32 ·zigKn+0(SB), Z16
	VMOVDQU32 ·zigKn+64(SB), Z17
	VMOVDQU32 ·zigKn+128(SB), Z18
	VMOVDQU32 ·zigKn+192(SB), Z19
	VMOVDQU32 ·zigKn+256(SB), Z20
	VMOVDQU32 ·zigKn+320(SB), Z21
	VMOVDQU32 ·zigKn+384(SB), Z22
	VMOVDQU32 ·zigKn+448(SB), Z23
	VMOVDQU32 ·zigWn+0(SB), Z24
	VMOVDQU32 ·zigWn+64(SB), Z25
	VMOVDQU32 ·zigWn+128(SB), Z26
	VMOVDQU32 ·zigWn+192(SB), Z27
	VMOVDQU32 ·zigWn+256(SB), Z28
	VMOVDQU32 ·zigWn+320(SB), Z29
	VMOVDQU32 ·zigWn+384(SB), Z30
	VMOVDQU32 ·zigWn+448(SB), Z31
	VMOVDQU32 zigEven<>(SB), Z13
	MOVL $0x7f, AX
	VPBROADCASTD AX, Z14
	MOVL $32, AX
	VPBROADCASTD AX, Z12
	MOVL $64, AX
	VPBROADCASTD AX, Z11

	XORQ BX, BX

scan16:
	MOVQ R8, CX
	SUBQ BX, CX
	JLE  scandone
	MOVL $0xffff, DX
	CMPQ CX, $16
	JAE  scangroup
	MOVL $1, DX
	SHLL CX, DX
	DECL DX

scangroup:
	KMOVW    DX, K7
	VMOVDQU64 (SI)(BX*8), Z0
	VMOVDQU64 64(SI)(BX*8), Z1
	VPSRLQ   $31, Z0, Z0
	VPSRLQ   $31, Z1, Z1
	VPERMT2D Z1, Z13, Z0
	VPANDD   Z14, Z0, Z2
	VPABSD   Z0, Z3
	VPTESTMD Z12, Z2, K1
	VPTESTMD Z11, Z2, K2

	LOOKUP(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z4)
	VPCMPUD $1, Z4, Z3, K7, K3
	MOVQ    BX, AX
	SHRQ    $3, AX
	KMOVW   K3, (R9)(AX*1)
	LOOKUP(Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, Z4)

	VCVTDQ2PD     Y0, Z5
	VCVTPS2PD     Y4, Z8
	VMULPD        Z5, Z8, Z8
	VMULPD        Z15, Z8, Z8
	VMOVUPD       Z8, (DI)(BX*8)
	VEXTRACTI64X4 $1, Z0, Y0
	VEXTRACTF64X4 $1, Z4, Y4
	VCVTDQ2PD     Y0, Z5
	VCVTPS2PD     Y4, Z9
	VMULPD        Z5, Z9, Z9
	VMULPD        Z15, Z9, Z9
	VMOVUPD       Z9, 64(DI)(BX*8)
	ADDQ $16, BX
	JMP  scan16

scandone:
	VZEROUPPER
	RET

// func commitAVX512(d []float64, y *[256]float64, acc *[4]uint64, n int) int
//
// First it packs y in place: words p..p+7 (p = 0, 8, ...) go as one
// vector, acc's byte p/8 (limited to the words below n) says which are
// draws, and VCOMPRESSPD moves those to the low lanes, stored whole to
// y[q:]; q ≤ p, so the store never reaches a group not yet loaded, and q
// advances by their count, so the next store overwrites the rest. Then
// d[k] = y[k] + d[k] for k < q, eight to a vector and the last q%8 one
// at a time. Adding straight into d would load each vector over the
// masked store just before it, which the CPU does not forward, stalling
// each load until that store retires.
TEXT ·commitAVX512(SB), NOSPLIT, $0-56
	MOVQ d_base+0(FP), DI
	MOVQ y+24(FP), SI
	MOVQ acc+32(FP), R9
	MOVQ n+40(FP), R8
	XORQ BX, BX
	XORQ R13, R13

pack8:
	MOVQ R8, CX
	SUBQ BX, CX
	JLE  add
	MOVL $0xff, DX
	CMPQ CX, $8
	JAE  packgroup
	MOVL $1, DX
	SHLL CX, DX
	DECL DX

packgroup:
	MOVQ        BX, AX
	SHRQ        $3, AX
	MOVBLZX     (R9)(AX*1), R11
	ANDL        DX, R11
	KMOVW       R11, K1
	VMOVUPD     (SI)(BX*8), Z0
	VCOMPRESSPD Z0, K1, Z1
	VMOVUPD     Z1, (SI)(R13*8)
	POPCNTL     R11, R12
	ADDQ        R12, R13
	ADDQ        $8, BX
	JMP         pack8

add:
	XORQ BX, BX
	MOVQ R13, DX
	ANDQ $-8, DX

add8:
	CMPQ    BX, DX
	JEQ     add1
	VMOVUPD (SI)(BX*8), Z0
	VADDPD  (DI)(BX*8), Z0, Z0
	VMOVUPD Z0, (DI)(BX*8)
	ADDQ    $8, BX
	JMP     add8

add1:
	CMPQ   BX, R13
	JEQ    done
	VMOVSD (SI)(BX*8), X0
	VADDSD (DI)(BX*8), X0, X0
	VMOVSD X0, (DI)(BX*8)
	INCQ   BX
	JMP    add1

done:
	MOVQ R13, ret+48(FP)
	VZEROUPPER
	RET
