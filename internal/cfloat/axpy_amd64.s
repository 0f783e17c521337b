// Packed SSE2 body of Axpy's loop: baseline amd64, bit for bit axpyGo.
//
// axpyGo's y[i] += alpha·x[i] is gc's complex64 product, taken in
// float64 and rounded to float32, then a float32 add: per element
// pr = f32(ar·xr − ai·xi), pi = f32(ar·xi + ai·xr), y += (pr, pi).
// Here both parts of one element share a register: with (xr, xi) widened
// by CVTPS2PD, (ar, ar)·(xr, xi) + (−ai, ai)·(xi, xr) is
// (ar·xr + (−ai)·xi, ar·xi + ai·xr). Three identities make that exact:
// a product of two float32 is exact in float64 (24 + 24 bits ≤ 53), so
// (−ai)·xi = −(ai·xi) and a fused or unfused float64 multiply-add round
// alike; a − b ≡ a + (−b) (the IEEE definition); and addition commutes.
// CVTPD2PS then rounds each part once, as gc's narrowing does, and ADDPS
// adds y's lanes to the product's.

#include "textflag.h"

// sign bit of the low float64 lane: negates (ai, ai) to (−ai, ai)
DATA negdlo<>+0(SB)/8, $0x8000000000000000
DATA negdlo<>+8(SB)/8, $0x0000000000000000
GLOBL negdlo<>(SB), RODATA|NOPTR, $16

// PROD sets P (two float64 lanes of one complex64, widened) to the
// element's product with alpha: P·(ar, ar) + swap(P)·(−ai, ai). Needs
// X8 = (ar, ar) and X9 = (−ai, ai); T is scratch.
#define PROD(P, T) \
	PSHUFD $0x4E, P, T; \
	MULPD  X8, P;       \
	MULPD  X9, T;       \
	ADDPD  T, P

// func axpy(alpha complex64, x, y []complex64)
//
// Two independent elements per iteration, then one. Each element is
// widened straight from memory and its y loaded and stored alone: packing
// two y into one register would cost a shuffle on the port the
// conversions already queue on (a 4-element pass measured no faster on
// a 2.1 GHz Xeon).
// Axpy has checked len(x) == len(y) and alpha != 0.
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVQ     x_base+8(FP), SI
	MOVQ     x_len+16(FP), CX
	MOVQ     y_base+32(FP), DI
	MOVSS    alpha_real+0(FP), X8
	CVTSS2SD X8, X8
	UNPCKLPD X8, X8
	MOVSS    alpha_imag+4(FP), X9
	CVTSS2SD X9, X9
	UNPCKLPD X9, X9
	MOVUPS   negdlo<>(SB), X7
	XORPD    X7, X9

pair:
	CMPQ     CX, $2
	JLT      one
	CVTPS2PD (SI), X0
	CVTPS2PD 8(SI), X1
	PROD(X0, X2)
	PROD(X1, X3)
	CVTPD2PS X0, X0
	CVTPD2PS X1, X1
	MOVQ     (DI), X4
	MOVQ     8(DI), X5
	ADDPS    X0, X4
	ADDPS    X1, X5
	MOVQ     X4, (DI)
	MOVQ     X5, 8(DI)
	ADDQ     $16, SI
	ADDQ     $16, DI
	SUBQ     $2, CX
	JMP      pair

one:
	TESTQ    CX, CX
	JZ       done
	CVTPS2PD (SI), X0
	PROD(X0, X2)
	CVTPD2PS X0, X0
	MOVQ     (DI), X4
	ADDPS    X0, X4
	MOVQ     X4, (DI)

done:
	RET
