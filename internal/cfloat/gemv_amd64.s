// Packed SSE bodies of the two Gemv loops: baseline amd64 (SSE and SSE2
// only), bit for bit gemvNGo and gemvCGo.
//
// Every float32 operation below is one the Go loop performs, on the same
// operands in the same order; only independent lanes are packed. Two
// identities let a packed add stand in for a subtraction: a − b ≡ a + (−b)
// (the IEEE definition), and −(u·v) = u·(−v) exactly, so negating one
// factor by its sign bit before the multiply changes no bit. Addition and
// multiplication commute exactly, so which register is the source is free.
// A complex64 in a register pair of lanes is (re, im).

#include "textflag.h"

// sign bits of lanes 0 and 2: negates the real parts
DATA negre<>+0(SB)/8, $0x0000000080000000
DATA negre<>+8(SB)/8, $0x0000000080000000
GLOBL negre<>(SB), RODATA|NOPTR, $16

// sign bits of lanes 1 and 3: negates the imaginary parts
DATA negim<>+0(SB)/8, $0x8000000000000000
DATA negim<>+8(SB)/8, $0x8000000000000000
GLOBL negim<>(SB), RODATA|NOPTR, $16

// MULC sets the two complex64 in Z to c·Z, mul's operations: lanes
// (cr·zr − ci·zi, cr·zi + ci·zr), with RE = (cr, cr, cr, cr) and
// IM = (−ci, ci, −ci, ci). T is scratch.
#define MULC(Z, RE, IM, T) \
	PSHUFD $0xB1, Z, T; \
	MULPS  RE, Z;       \
	MULPS  IM, T;       \
	ADDPS  T, Z

// SCALE forms p = alpha·x[j] from the complex64 at addr: P = (pr, pi, pr,
// pi) and PN = (−pi, pr, −pi, pr). Needs X8, X9 = alpha as MULC's RE, IM
// and X14 = negre.
#define SCALE(addr, P, PN) \
	MOVQ    addr, P;          \
	MOVLHPS P, P;             \
	MULC(P, X8, X9, PN);      \
	PSHUFD  $0xB1, P, PN;     \
	XORPS   X14, PN

// COLN adds one column to the two rows of y in Y, as gemvNGo's
// y[i] = y[i] + vr·pr − vi·pi (re) and y[i] + vr·pi + vi·pr (im):
// Y += dup_re(A)·P, then Y += dup_im(A)·PN. A holds the column's two
// rows and is clobbered; T is scratch.
#define COLN(A, P, PN, Y, T) \
	PSHUFD $0xF5, A, T; \
	SHUFPS $0xA0, A, A; \
	MULPS  P, A;        \
	ADDPS  A, Y;        \
	MULPS  PN, T;       \
	ADDPS  T, Y

// func gemvN(n int, alpha complex64, a []complex64, lda int, x, y []complex64)
//
// Columns two per pass, rows two per register (four per iteration); the
// pass's y rows are loaded and stored once.
TEXT ·gemvN(SB), NOSPLIT, $0-96
	MOVQ   n+0(FP), CX
	MOVQ   a_base+16(FP), SI // column j
	MOVQ   lda+40(FP), R8
	SHLQ   $3, R8            // column stride in bytes
	MOVQ   x_base+48(FP), DX // &x[j]
	MOVQ   y_base+72(FP), DI
	MOVQ   y_len+80(FP), BX  // rows
	MOVUPS negre<>(SB), X14
	MOVSS  alpha_real+8(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS  alpha_imag+12(FP), X9
	SHUFPS $0x00, X9, X9
	XORPS  X14, X9

pairN:
	CMPQ CX, $2
	JLT  oneN
	SCALE((DX), X0, X1)
	SCALE(8(DX), X2, X3)
	LEAQ (SI)(R8*1), R9  // column j+1
	MOVQ BX, AX          // rows left
	XORQ R10, R10        // byte offset of row i

pairRows4N:
	CMPQ   AX, $4
	JLT    pairRows2N
	MOVUPS (DI)(R10*1), X4
	MOVUPS 16(DI)(R10*1), X5
	MOVUPS (SI)(R10*1), X6
	MOVUPS 16(SI)(R10*1), X7
	COLN(X6, X0, X1, X4, X10)
	COLN(X7, X0, X1, X5, X11)
	MOVUPS (R9)(R10*1), X6
	MOVUPS 16(R9)(R10*1), X7
	COLN(X6, X2, X3, X4, X10)
	COLN(X7, X2, X3, X5, X11)
	MOVUPS X4, (DI)(R10*1)
	MOVUPS X5, 16(DI)(R10*1)
	ADDQ   $32, R10
	SUBQ   $4, AX
	JMP    pairRows4N

pairRows2N:
	CMPQ   AX, $2
	JLT    pairRow1N
	MOVUPS (DI)(R10*1), X4
	MOVUPS (SI)(R10*1), X6
	COLN(X6, X0, X1, X4, X10)
	MOVUPS (R9)(R10*1), X6
	COLN(X6, X2, X3, X4, X10)
	MOVUPS X4, (DI)(R10*1)
	ADDQ   $16, R10
	SUBQ   $2, AX

pairRow1N:
	TESTQ AX, AX
	JZ    pairDoneN
	MOVQ  (DI)(R10*1), X4
	MOVQ  (SI)(R10*1), X6
	COLN(X6, X0, X1, X4, X10)
	MOVQ  (R9)(R10*1), X6
	COLN(X6, X2, X3, X4, X10)
	MOVQ  X4, (DI)(R10*1)

pairDoneN:
	LEAQ (R9)(R8*1), SI
	ADDQ $16, DX
	SUBQ $2, CX
	JMP  pairN

oneN:
	TESTQ CX, CX
	JZ    doneN
	SCALE((DX), X0, X1)
	MOVQ  BX, AX
	XORQ  R10, R10

oneRows2N:
	CMPQ   AX, $2
	JLT    oneRow1N
	MOVUPS (DI)(R10*1), X4
	MOVUPS (SI)(R10*1), X6
	COLN(X6, X0, X1, X4, X10)
	MOVUPS X4, (DI)(R10*1)
	ADDQ   $16, R10
	SUBQ   $2, AX
	JMP    oneRows2N

oneRow1N:
	TESTQ AX, AX
	JZ    doneN
	MOVQ  (DI)(R10*1), X4
	MOVQ  (SI)(R10*1), X6
	COLN(X6, X0, X1, X4, X10)
	MOVQ  X4, (DI)(R10*1)

doneN:
	RET

// XROW loads x[i] from addr as X2 = (xr, −xr, xr, −xr) and
// X3 = (xi, xi, xi, xi). Needs X14 = negim.
#define XROW(addr) \
	MOVQ   addr, X3;       \
	PSHUFD $0x00, X3, X2;  \
	PSHUFD $0x55, X3, X3;  \
	XORPS  X14, X2

// DOTC adds row i to the accumulators of two columns, S = (s_j, s_j+1),
// as gemvCGo's s += vr·xr + vi·xi (re) and s += vr·xi − vi·xr (im): with
// V = (a_j, a_j+1) of the row, t = V·X2 + swap(V)·X3, then S += t. V is
// clobbered; T is scratch.
#define DOTC(V, S, T) \
	PSHUFD $0xB1, V, T; \
	MULPS  X2, V;       \
	MULPS  X3, T;       \
	ADDPS  T, V;        \
	ADDPS  V, S

// func gemvC(n int, alpha complex64, a []complex64, lda int, x []complex64, beta complex64, y []complex64)
//
// Columns four per pass as two accumulator pairs (two independent add
// chains), rows one per iteration; each y[j] is then axpby(alpha, s_j,
// beta, y[j]), y read only when beta != 0.
TEXT ·gemvC(SB), NOSPLIT, $0-104
	MOVQ   n+0(FP), CX
	MOVQ   a_base+16(FP), SI // column j
	MOVQ   lda+40(FP), R8
	SHLQ   $3, R8            // column stride in bytes
	MOVQ   x_base+48(FP), DX
	MOVQ   x_len+56(FP), BX  // rows
	MOVQ   y_base+80(FP), DI // &y[j]
	MOVUPS negre<>(SB), X14
	MOVSS  alpha_real+8(FP), X8
	SHUFPS $0x00, X8, X8
	MOVSS  alpha_imag+12(FP), X9
	SHUFPS $0x00, X9, X9
	XORPS  X14, X9
	MOVSS  beta_real+72(FP), X10
	SHUFPS $0x00, X10, X10
	MOVSS  beta_imag+76(FP), X11
	SHUFPS $0x00, X11, X11
	XORPS  X14, X11
	MOVQ   beta+72(FP), R11
	MOVQ   $0x7fffffff7fffffff, AX
	ANDQ   AX, R11           // zero iff beta == 0 (either zero's sign)
	MOVUPS negim<>(SB), X14

quadC:
	CMPQ  CX, $4
	JLT   pairC
	LEAQ  (SI)(R8*1), R9
	LEAQ  (R9)(R8*1), R12
	LEAQ  (R12)(R8*1), R13
	XORPS X0, X0
	XORPS X1, X1
	MOVQ  BX, AX
	XORQ  R10, R10
	TESTQ AX, AX
	JZ    quadEndC

quadRowC:
	XROW((DX)(R10*1))
	MOVQ   (SI)(R10*1), X4
	MOVHPS (R9)(R10*1), X4
	DOTC(X4, X0, X5)
	MOVQ   (R12)(R10*1), X6
	MOVHPS (R13)(R10*1), X6
	DOTC(X6, X1, X7)
	ADDQ   $8, R10
	DECQ   AX
	JNZ    quadRowC

quadEndC:
	MULC(X0, X8, X9, X5)
	MULC(X1, X8, X9, X7)
	TESTQ  R11, R11
	JZ     quadStoreC
	MOVUPS (DI), X4
	MOVUPS 16(DI), X6
	MULC(X4, X10, X11, X5)
	MULC(X6, X10, X11, X7)
	ADDPS  X4, X0
	ADDPS  X6, X1

quadStoreC:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	LEAQ   (R13)(R8*1), SI
	ADDQ   $32, DI
	SUBQ   $4, CX
	JMP    quadC

pairC:
	CMPQ  CX, $2
	JLT   oneC
	LEAQ  (SI)(R8*1), R9
	XORPS X0, X0
	MOVQ  BX, AX
	XORQ  R10, R10
	TESTQ AX, AX
	JZ    pairEndC

pairRowC:
	XROW((DX)(R10*1))
	MOVQ   (SI)(R10*1), X4
	MOVHPS (R9)(R10*1), X4
	DOTC(X4, X0, X5)
	ADDQ   $8, R10
	DECQ   AX
	JNZ    pairRowC

pairEndC:
	MULC(X0, X8, X9, X5)
	TESTQ  R11, R11
	JZ     pairStoreC
	MOVUPS (DI), X4
	MULC(X4, X10, X11, X5)
	ADDPS  X4, X0

pairStoreC:
	MOVUPS X0, (DI)
	LEAQ   (R9)(R8*1), SI
	ADDQ   $16, DI
	SUBQ   $2, CX

oneC:
	TESTQ CX, CX
	JZ    doneC
	XORPS X0, X0
	MOVQ  BX, AX
	XORQ  R10, R10
	TESTQ AX, AX
	JZ    oneEndC

oneRowC:
	XROW((DX)(R10*1))
	MOVQ (SI)(R10*1), X4
	DOTC(X4, X0, X5)
	ADDQ $8, R10
	DECQ AX
	JNZ  oneRowC

oneEndC:
	MULC(X0, X8, X9, X5)
	TESTQ R11, R11
	JZ    oneStoreC
	MOVQ  (DI), X4
	MULC(X4, X10, X11, X5)
	ADDPS X4, X0

oneStoreC:
	MOVQ X0, (DI)

doneC:
	RET
