#include "textflag.h"

// func crossCorrelateAVX2(out, x, ref []complex128)
//
// The frame holds the planes, each float64 at 8 bytes a step:
//
//	0(SP)       c_i  = real(ref[i])       i < XREF
//	XREF*8(SP)  d′_i = −imag(ref[i])      (the conjugate's imaginary part)
//	XR(SP)      a_j  = real(x[j])         j < XSPAN
//	XR+XI(SP)   b_j  = imag(x[j])
//
// Go's win[i]*cmplx.Conj(r) is (a·c − b·d′) + i(a·d′ + b·c). With the
// planes, outputs k..k+3 are the four lanes of one YMM register: tap i
// splats c_i and d′_i and loads a and b at j = k+i, so each tap is four
// VMULPDs, a VSUBPD and a VADDPD for the product and two VADDPDs onto the
// sums, which start at +0 as the Go step's do. A pass over the taps runs
// two such groups, outputs k..k+7, then interleaves the sums back into
// complex128 pairs. The frame is XR + 2·XI = 9216 bytes.

#define XREF 64
#define XSPAN 512
#define XR (2*XREF*8)
#define XI (XSPAN*8)

// GROUP adds tap i's products for the four outputs whose samples start
// at off(R10)(R9*8) onto the real sums in accr and imaginary sums in
// acci; Y4 = c_i and Y5 = d′_i.
#define GROUP(off, accr, acci) \
	VMOVUPD off(R10)(R9*8), Y6;    \
	VMOVUPD off+XI(R10)(R9*8), Y7; \
	VMULPD  Y4, Y6, Y8;            \
	VMULPD  Y5, Y7, Y9;            \
	VSUBPD  Y9, Y8, Y8;            \
	VADDPD  Y8, accr, accr;        \
	VMULPD  Y5, Y6, Y10;           \
	VMULPD  Y4, Y7, Y11;           \
	VADDPD  Y11, Y10, Y10;         \
	VADDPD  Y10, acci, acci

// STORE interleaves the four real sums in accr and imaginary sums in
// acci into complex128s at off(DI).
#define STORE(off, accr, acci) \
	VUNPCKLPD  acci, accr, Y4;  \
	VUNPCKHPD  acci, accr, Y5;  \
	VPERM2F128 $0x20, Y5, Y4, Y6; \
	VPERM2F128 $0x31, Y5, Y4, Y7; \
	VMOVUPD    Y6, off(DI);     \
	VMOVUPD    Y7, off+32(DI)

TEXT ·crossCorrelateAVX2(SB), 0, $9216-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX
	MOVQ ref_base+48(FP), BX
	MOVQ ref_len+56(FP), R8
	SHRQ $3, CX
	JZ   done

	// Split ref into c and d′: Y15 is the sign mask that negates d.
	VPCMPEQQ Y15, Y15, Y15
	VPSLLQ   $63, Y15, Y15
	MOVQ     R8, R11
	LEAQ     0(SP), R12

refsplit:
	VMOVSD (BX), X0
	VMOVSD X0, (R12)
	VMOVSD 8(BX), X0
	VXORPD X15, X0, X0
	VMOVSD X0, (XREF*8)(R12)
	ADDQ   $16, BX
	ADDQ   $8, R12
	DECQ   R11
	JNZ    refsplit

	// Split x into a and b, four samples at a time, then one at a time.
	LEAQ XR(SP), R12
	MOVQ DX, R11
	SHRQ $2, R11
	JZ   xtail

xquad:
	VMOVUPD   (SI), Y0
	VMOVUPD   32(SI), Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VPERMPD   $0xD8, Y2, Y2
	VPERMPD   $0xD8, Y3, Y3
	VMOVUPD   Y2, (R12)
	VMOVUPD   Y3, XI(R12)
	ADDQ      $64, SI
	ADDQ      $32, R12
	DECQ      R11
	JNZ       xquad

xtail:
	ANDQ $3, DX
	JZ   passes

xone:
	VMOVSD (SI), X0
	VMOVSD X0, (R12)
	VMOVSD 8(SI), X0
	VMOVSD X0, XI(R12)
	ADDQ   $16, SI
	ADDQ   $8, R12
	DECQ   DX
	JNZ    xone

passes:
	LEAQ 0(SP), R12
	LEAQ XR(SP), R10

group:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   R9, R9

tap:
	VBROADCASTSD (R12)(R9*8), Y4
	VBROADCASTSD (XREF*8)(R12)(R9*8), Y5
	GROUP(0, Y0, Y2)
	GROUP(32, Y1, Y3)
	INCQ         R9
	CMPQ         R9, R8
	JNE          tap

	STORE(0, Y0, Y2)
	STORE(64, Y1, Y3)
	ADDQ $128, DI
	ADDQ $64, R10
	DECQ CX
	JNZ  group

	VZEROUPPER

done:
	RET
