#include "textflag.h"

// func acsKernel(mp, np *[64]float64, bm *[4]float64) uint64
//
// Each iteration runs the butterflies of next-state pairs j and j+1
// (j even, 30 down to 0) in the two lanes of an XMM register:
//
//	X0 = [a_j, a_j+1]   X2 = [b_j, b_j+1]   X3 = [v_j, v_j+1]
//
// with a_j = mp[2j], b_j = mp[2j+1] and v_j = bm[branchIdx[j]]. As in
// acsStep, m0 = a±v, m1 = b∓v and d = m1-m0; a lane keeps m1 exactly when
// d's sign bit is set. SSE2 has no 64-bit arithmetic shift, so the select
// mask is PSRAL $31 (each dword becomes its sign) and PSHUFD $0xF5 (each
// lane copies its high dword's), and MOVMSKPD reads the same sign bits as
// the survivor bits. Walking j downwards lets the survivor words grow by a
// shift of 2 and an OR.
TEXT ·acsKernel(SB), NOSPLIT, $0-32
	MOVQ mp+0(FP), SI
	MOVQ np+8(FP), DI
	MOVQ bm+16(FP), BX
	LEAQ ·branchIdx(SB), R10
	XORQ AX, AX // survivor bits of states 0..31
	XORQ DX, DX // survivor bits of states 32..63
	MOVQ $30, CX

loop:
	MOVQ     CX, R8
	SHLQ     $4, R8               // byte offset of mp[2j]
	MOVUPD   (SI)(R8*1), X0       // [a_j, b_j]
	MOVUPD   16(SI)(R8*1), X1     // [a_j+1, b_j+1]
	MOVAPD   X0, X2
	UNPCKLPD X1, X0               // [a_j, a_j+1]
	UNPCKHPD X1, X2               // [b_j, b_j+1]
	MOVBQZX  (R10)(CX*1), R9
	MOVBQZX  1(R10)(CX*1), R11
	MOVSD    (BX)(R9*8), X3
	MOVHPD   (BX)(R11*8), X3      // [v_j, v_j+1]

	// in = 0: states j, j+1.
	MOVAPD   X0, X4
	ADDPD    X3, X4               // m0 = a + v
	MOVAPD   X2, X5
	SUBPD    X3, X5               // m1 = b - v
	MOVAPD   X5, X6
	SUBPD    X4, X6               // d = m1 - m0
	MOVMSKPD X6, R9
	PSRAL    $31, X6
	PSHUFD   $0xF5, X6, X6        // sel
	ANDPD    X6, X5               // m1 & sel
	ANDNPD   X4, X6               // m0 &^ sel
	ORPD     X5, X6
	MOVUPD   X6, (DI)(CX*8)
	SHLQ     $2, AX
	ORQ      R9, AX

	// in = 1: states j+32, j+33, both signs flipped.
	SUBPD    X3, X0               // m0 = a - v
	ADDPD    X3, X2               // m1 = b + v
	MOVAPD   X2, X6
	SUBPD    X0, X6               // d = m1 - m0
	MOVMSKPD X6, R9
	PSRAL    $31, X6
	PSHUFD   $0xF5, X6, X6        // sel
	ANDPD    X6, X2               // m1 & sel
	ANDNPD   X0, X6               // m0 &^ sel
	ORPD     X2, X6
	MOVUPD   X6, 256(DI)(CX*8)
	SHLQ     $2, DX
	ORQ      R9, DX

	SUBQ $2, CX
	JGE  loop

	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+24(FP)
	RET
