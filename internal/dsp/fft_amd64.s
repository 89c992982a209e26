#include "textflag.h"

// func fft64AVX2(dst, src *[64]complex128, tw *fftPlanes, post float64, scaled bool)
//
// The frame holds the transform in two planes, 32-byte aligned at R10:
//
//	0(R10)    real(x[i])   i < 64, in bit-reversed (butterfly) order
//	512(R10)  imag(x[i])
//
// so the YMM row at 8i holds butterfly inputs i..i+3. The table tw has the
// same shape: real parts at 0(DX), imaginary parts at 512(DX), stage 4's
// row at 0, stage 8's at 32, stage 16's two at 64, stage 32's four at 128
// and stage 64's eight at 256; the prescale pre follows at 1024(DX).
//
// Pass 1 runs four times, once per 16 inputs, in registers Y0–Y7: rows
// R0..R3 (real) and I0..I3 (imaginary) of inputs 16c..16c+15. It gathers
// them from src, applies the inverse prescale, runs stage 2 inside each
// 128-bit lane, stage 4 across lanes, and stages 8 and 16 between rows,
// then stores them to the planes. Pass 2 runs four times, once per rows
// 4j, 4j+16, 4j+32 and 4j+48, which stages 32 and 64 pair, applies the
// post-scale if scaled, and interleaves the result into dst.
//
// Every butterfly is Go's: p = b·w as (br·wr − bi·wi) + i(br·wi + bi·wr),
// then a + p and a − p. The k = 0 butterflies, which Go never multiplies,
// take b back into their lanes with VBLENDPD (KEEP).

// GATHER loads the four inputs of one row, src[r], src[r+32], src[r+16]
// and src[r+48] with r·16 = off(R8), and splits them into re and im.
#define GATHER(off, xa, ya, xb, yb, re, im) \
	VMOVUPD     off(R8), xa;             \
	VINSERTF128 $1, off+256(R8), ya, ya; \
	VMOVUPD     off+512(R8), xb;         \
	VINSERTF128 $1, off+768(R8), yb, yb; \
	VUNPCKLPD   yb, ya, re;              \
	VUNPCKHPD   yb, ya, im

// SCALE is Go's x·complex(s, 0) on a row, with Y10 = s and Y11 = 0:
// (xr·s − xi·0) + i(xr·0 + xi·s). NOSCALE is for transforms without one.
#define SCALE(re, im) \
	VMULPD Y10, re, Y12; \
	VMULPD Y11, im, Y13; \
	VMULPD Y11, re, re;  \
	VMULPD Y10, im, im;  \
	VADDPD im, re, im;   \
	VSUBPD Y13, Y12, re

#define NOSCALE(re, im)

// STAGE2 runs the size-2 butterflies, inputs (x, y) in lanes (0, 1) and
// (2, 3) of one plane's row: the sum x + y in the even lanes, y's swap
// partner minus y, Go's x − y, in the odd lanes.
#define STAGE2(r) \
	VPERMILPD $5, r, Y8;  \
	VADDPD    Y8, r, Y9;  \
	VSUBPD    r, Y8, Y8;  \
	VBLENDPD  $10, Y8, Y9, r

// CMUL sets (pr, pi) to b·w for the four lanes of (br, bi), with the
// twiddle planes as memory operands wr and wi.
#define CMUL(br, bi, wr, wi, pr, pi) \
	VMULPD wr, br, pr;  \
	VMULPD wi, bi, Y14; \
	VSUBPD Y14, pr, pr; \
	VMULPD wi, br, pi;  \
	VMULPD wr, bi, Y14; \
	VADDPD Y14, pi, pi

// KEEP puts b back into the lanes of mask, the k = 0 butterflies; NOKEEP
// is for rows without one.
#define KEEP(mask, br, bi, pr, pi) \
	VBLENDPD mask, br, pr, pr; \
	VBLENDPD mask, bi, pi, pi

#define NOKEEP(mask, br, bi, pr, pi)

// BFLY finishes a butterfly on rows: (a, b) ← (a + p, a − p).
#define BFLY(ar, ai, br, bi, pr, pi) \
	VSUBPD pr, ar, br; \
	VSUBPD pi, ai, bi; \
	VADDPD pr, ar, ar; \
	VADDPD pi, ai, ai

// STAGE runs the butterflies between rows a and b with the twiddle row at
// off(tw); keep says whether it holds k = 0.
#define STAGE(keep, ar, ai, br, bi, tw, off) \
	CMUL(br, bi, off(tw), off+512(tw), Y12, Y13); \
	keep($1, br, bi, Y12, Y13);                   \
	BFLY(ar, ai, br, bi, Y12, Y13)

// STAGE4 runs the size-4 butterflies of rows 0 and 1: VPERM2F128 gathers
// both rows' butterfly tops (k = 0, 1) into a and bottoms into b, and
// splits the result back into rows.
#define STAGE4(r0, r1, i0, i1) \
	VPERM2F128 $0x20, r1, r0, Y8; \
	VPERM2F128 $0x31, r1, r0, r1; \
	VPERM2F128 $0x20, i1, i0, Y9; \
	VPERM2F128 $0x31, i1, i0, i1; \
	CMUL(r1, i1, 0(DX), 512(DX), Y12, Y13); \
	KEEP($5, r1, i1, Y12, Y13);   \
	BFLY(Y8, Y9, r1, i1, Y12, Y13); \
	VPERM2F128 $0x20, r1, Y8, r0; \
	VPERM2F128 $0x31, r1, Y8, r1; \
	VPERM2F128 $0x20, i1, Y9, i0; \
	VPERM2F128 $0x31, i1, Y9, i1

// MERGE interleaves a row's planes into four complex128s at off(DI).
#define MERGE(re, im, off) \
	VUNPCKLPD  im, re, Y8;      \
	VUNPCKHPD  im, re, Y9;      \
	VPERM2F128 $0x20, Y9, Y8, re; \
	VPERM2F128 $0x31, Y9, Y8, im; \
	VMOVUPD    re, off(DI);     \
	VMOVUPD    im, off+32(DI)

// PASS2 runs stages 32 and 64 on the rows at R11 with the twiddle rows at
// R12, scales them, and writes the 16 outputs to DI; keep says whether
// they hold k = 0.
#define PASS2(keep, scale) \
	VMOVUPD 0(R11), Y0;   \
	VMOVUPD 128(R11), Y1; \
	VMOVUPD 256(R11), Y2; \
	VMOVUPD 384(R11), Y3; \
	VMOVUPD 512(R11), Y4; \
	VMOVUPD 640(R11), Y5; \
	VMOVUPD 768(R11), Y6; \
	VMOVUPD 896(R11), Y7; \
	STAGE(keep, Y0, Y4, Y1, Y5, R12, 128);   \
	STAGE(keep, Y2, Y6, Y3, Y7, R12, 128);   \
	STAGE(keep, Y0, Y4, Y2, Y6, R12, 256);   \
	STAGE(NOKEEP, Y1, Y5, Y3, Y7, R12, 384); \
	scale(Y0, Y4);      \
	scale(Y1, Y5);      \
	scale(Y2, Y6);      \
	scale(Y3, Y7);      \
	MERGE(Y0, Y4, 0);   \
	MERGE(Y1, Y5, 256); \
	MERGE(Y2, Y6, 512); \
	MERGE(Y3, Y7, 768)

TEXT ·fft64AVX2(SB), 0, $1056-33
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ tw+16(FP), DX
	MOVQ 1024(DX), BX
	VBROADCASTSD 1024(DX), Y10
	VXORPD Y11, Y11, Y11
	LEAQ 31(SP), R10
	ANDQ $~31, R10
	MOVQ R10, R11
	XORQ CX, CX

pass1:
	// Rows 4c..4c+3 read src at r = 4·rev2(t) + rev2(c) for row 4c+t:
	// R8 = src + rev2(c)·16, then byte offsets 0, 128, 64 and 192.
	MOVQ CX, AX
	ANDQ $1, AX
	SHLQ $5, AX
	MOVQ CX, R9
	ANDQ $2, R9
	SHLQ $3, R9
	ADDQ R9, AX
	LEAQ (SI)(AX*1), R8
	GATHER(0, X8, Y8, X9, Y9, Y0, Y4)
	GATHER(128, X8, Y8, X9, Y9, Y1, Y5)
	GATHER(64, X8, Y8, X9, Y9, Y2, Y6)
	GATHER(192, X8, Y8, X9, Y9, Y3, Y7)
	TESTQ BX, BX
	JZ    stages
	SCALE(Y0, Y4)
	SCALE(Y1, Y5)
	SCALE(Y2, Y6)
	SCALE(Y3, Y7)

stages:
	STAGE2(Y0)
	STAGE2(Y1)
	STAGE2(Y2)
	STAGE2(Y3)
	STAGE2(Y4)
	STAGE2(Y5)
	STAGE2(Y6)
	STAGE2(Y7)
	STAGE4(Y0, Y1, Y4, Y5)
	STAGE4(Y2, Y3, Y6, Y7)
	STAGE(KEEP, Y0, Y4, Y1, Y5, DX, 32)
	STAGE(KEEP, Y2, Y6, Y3, Y7, DX, 32)
	STAGE(KEEP, Y0, Y4, Y2, Y6, DX, 64)
	STAGE(NOKEEP, Y1, Y5, Y3, Y7, DX, 96)
	VMOVUPD Y0, 0(R11)
	VMOVUPD Y1, 32(R11)
	VMOVUPD Y2, 64(R11)
	VMOVUPD Y3, 96(R11)
	VMOVUPD Y4, 512(R11)
	VMOVUPD Y5, 544(R11)
	VMOVUPD Y6, 576(R11)
	VMOVUPD Y7, 608(R11)
	ADDQ $128, R11
	INCQ CX
	CMPQ CX, $4
	JNE  pass1

	// Pass 2: j = 0 holds the k = 0 butterflies of stages 32 and 64.
	MOVQ R10, R11
	MOVQ DX, R12
	MOVQ $3, CX
	CMPB scaled+32(FP), $0
	JNE  postscale

	PASS2(KEEP, NOSCALE)

pass2:
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $64, DI
	PASS2(NOKEEP, NOSCALE)
	DECQ CX
	JNZ  pass2
	JMP  done

postscale:
	VBROADCASTSD post+24(FP), Y10
	PASS2(KEEP, SCALE)

pass2scaled:
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $64, DI
	PASS2(NOKEEP, SCALE)
	DECQ CX
	JNZ  pass2scaled

done:
	VZEROUPPER
	RET
