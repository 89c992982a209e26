#include "textflag.h"

// func convolveRotatePairs(dst, x, h []complex128, rot, step complex128) complex128
//
// Each iteration runs outputs k and k+1 with the real and imaginary parts
// split across registers, one output per lane:
//
//	X2 = [xr_j, xr_j+1]   X3 = [xi_j, xi_j+1]   (tap t reads j = k+nh-1-t)
//	X0 = [accr_k, accr_k+1]   X1 = [acci_k, acci_k+1]
//
// so Go's complex product h·x, (hr·xr − hi·xi) + i(hr·xi + hi·xr), is four
// MULPDs, a SUBPD and an ADDPD on whole lanes, with no shuffle between the
// multiplies and the sum. The taps are splatted once into the local frame,
// [hr, hr] at 32t(SP) and [hi, hi] at 32t+16(SP). The rotation recurrence
// rot_k+1 = rot_k·step runs in scalar registers (X8, X9), since each step
// needs the one before; UNPCKLPD packs rot_k and rot_k+1 into X12/X13 for
// the lanes.

// PAIR loads x[j], x[j+1] from off(SI) and splits them into X2 (real) and
// X3 (imaginary).
#define PAIR(off) \
	MOVUPD   off(SI), X2; \
	MOVUPD   off+16(SI), X4; \
	MOVAPD   X2, X3; \
	UNPCKLPD X4, X2; \
	UNPCKHPD X4, X3

// PRODUCT forms the tap whose splats are at hr(SP) and hi(SP) times the
// pair in X2/X3: pr = hr·xr − hi·xi, pi = hr·xi + hi·xr.
#define PRODUCT(hr, hi, pr, pi) \
	MOVUPD hr(SP), pr; \
	MULPD  X2, pr; \
	MOVUPD hi(SP), X6; \
	MULPD  X3, X6; \
	SUBPD  X6, pr; \
	MOVUPD hr(SP), pi; \
	MULPD  X3, pi; \
	MOVUPD hi(SP), X6; \
	MULPD  X2, X6; \
	ADDPD  X6, pi

// ACCUMULATE adds the tap at hr(SP), hi(SP) and the pair at off(SI) onto
// the tap sum: acc += h·x.
#define ACCUMULATE(off, hr, hi) \
	PAIR(off); \
	PRODUCT(hr, hi, X4, X5); \
	ADDPD X4, X0; \
	ADDPD X5, X1

// ROTATE advances the scalar rotation two steps, packing rot_k and
// rot_k+1 into X12/X13, and adds acc·rot to dst[k] and dst[k+1]:
// rot·step = (rr·sr − ri·si) + i(rr·si + ri·sr) and acc·rot likewise.
#define ROTATE \
	MOVAPD   X8, X4; \
	MULSD    X10, X4; \
	MOVAPD   X9, X5; \
	MULSD    X11, X5; \
	SUBSD    X5, X4; \
	MOVAPD   X8, X5; \
	MULSD    X11, X5; \
	MOVAPD   X9, X6; \
	MULSD    X10, X6; \
	ADDSD    X6, X5; \
	MOVAPD   X8, X12; \
	UNPCKLPD X4, X12; \
	MOVAPD   X9, X13; \
	UNPCKLPD X5, X13; \
	MOVAPD   X4, X8; \
	MULSD    X10, X8; \
	MOVAPD   X5, X6; \
	MULSD    X11, X6; \
	SUBSD    X6, X8; \
	MULSD    X11, X4; \
	MULSD    X10, X5; \
	ADDSD    X5, X4; \
	MOVAPD   X4, X9; \
	MOVAPD   X0, X4; \
	MULPD    X12, X4; \
	MOVAPD   X1, X5; \
	MULPD    X13, X5; \
	SUBPD    X5, X4; \
	MULPD    X13, X0; \
	MULPD    X12, X1; \
	ADDPD    X1, X0; \
	MOVAPD   X4, X5; \
	UNPCKLPD X0, X4; \
	UNPCKHPD X0, X5; \
	MOVUPD   (DI), X6; \
	ADDPD    X4, X6; \
	MOVUPD   X6, (DI); \
	MOVUPD   16(DI), X7; \
	ADDPD    X5, X7; \
	MOVUPD   X7, 16(DI); \
	ADDQ     $32, SI; \
	ADDQ     $32, DI

// SPLAT stores tap t of h as [hr, hr] at off(SP) and [hi, hi] at
// off+16(SP).
#define SPLAT(t, off) \
	MOVSD    (t*16)(BX), X4; \
	UNPCKLPD X4, X4; \
	MOVUPD   X4, off(SP); \
	MOVSD    (t*16+8)(BX), X4; \
	UNPCKLPD X4, X4; \
	MOVUPD   X4, off+16(SP)

TEXT ·convolveRotatePairs(SB), NOSPLIT, $128-120
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  x_base+24(FP), SI
	MOVQ  h_base+48(FP), BX
	MOVQ  h_len+56(FP), DX
	MOVSD rot_real+72(FP), X8
	MOVSD rot_imag+80(FP), X9
	MOVSD step_real+88(FP), X10
	MOVSD step_imag+96(FP), X11
	SHRQ  $1, CX
	JZ    done
	SPLAT(0, 0)
	SPLAT(1, 32)
	SPLAT(2, 64)
	CMPQ  DX, $3
	JEQ   three
	SPLAT(3, 96)

four:
	PAIR(48)
	PRODUCT(0, 16, X0, X1)
	ACCUMULATE(32, 32, 48)
	ACCUMULATE(16, 64, 80)
	ACCUMULATE(0, 96, 112)
	ROTATE
	DECQ  CX
	JNZ   four
	JMP   done

three:
	PAIR(32)
	PRODUCT(0, 16, X0, X1)
	ACCUMULATE(16, 32, 48)
	ACCUMULATE(0, 64, 80)
	ROTATE
	DECQ  CX
	JNZ   three

done:
	MOVSD X8, ret_real+104(FP)
	MOVSD X9, ret_imag+112(FP)
	RET
