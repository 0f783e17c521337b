// 256-bit AVX bodies of the two Gemv loops, bit for bit gemvNGo and
// gemvCGo, and the CPUID test that selects them; without AVX Gemv runs
// the Go loops. AVX alone is enough, not AVX2: every 256-bit operation
// below is a floating-point one, and every broadcast reads memory.
//
// Every float32 operation below is one the Go loop performs, on the same
// operands in the same order, rounded once: only VMULPS and VADDPS
// compute, never a fused multiply-add, and only independent lanes are
// packed, four complex64 per YMM register. Two identities let a packed
// add stand in for a subtraction: a − b ≡ a + (−b) (the IEEE definition),
// and −(u·v) = u·(−v) exactly, so negating one factor by its sign bit
// before the multiply changes no bit. Addition and multiplication commute
// exactly, so which register is the source is free. A complex64 in a
// register pair of lanes is (re, im). Both kernels run VZEROUPPER before
// they return, so no dirty upper state reaches SSE code.

#include "textflag.h"

// sign bits of the real lanes, broadcast by VBROADCASTSD
DATA negre<>+0(SB)/8, $0x0000000080000000
GLOBL negre<>(SB), RODATA|NOPTR, $8

// sign bits of the imaginary lanes, broadcast by VBROADCASTSD
DATA negim<>+0(SB)/8, $0x8000000000000000
GLOBL negim<>(SB), RODATA|NOPTR, $8

// func hasAVX() bool
//
// AVX needs the CPU to have it and the OS to save the YMM state: CPUID
// leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX), then XCR0 bits 1 (XMM) and
// 2 (YMM).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	MOVL   $1, AX
	XORL   CX, CX
	CPUID
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    noAVX
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    noAVX
	MOVB   $1, ret+0(FP)

noAVX:
	RET

// MULCV sets the complex64 lanes of Z to c·Z, mul's operations:
// (cr·zr − ci·zi, cr·zi + ci·zr), with RE = (cr, cr, …) and
// IM = (−ci, ci, …). T is scratch. X or Y registers alike.
#define MULCV(Z, RE, IM, T) \
	VPERMILPS $0xB1, Z, T; \
	VMULPS    RE, Z, Z;    \
	VMULPS    IM, T, T;    \
	VADDPS    T, Z, Z

// SCALEV forms p = alpha·x[j] from the complex64 at addr, broadcast:
// P = (pr, pi, pr, pi, …) and PN = (−pi, pr, −pi, pr, …). Needs Y8, Y9 =
// alpha as MULCV's RE, IM and Y14 = negre.
#define SCALEV(addr, P, PN) \
	VBROADCASTSD addr, P;      \
	MULCV(P, Y8, Y9, PN);      \
	VPERMILPS    $0xB1, P, PN; \
	VXORPS       Y14, PN, PN

// COLNV adds one column to the rows of y in Y, as gemvNGo's
// y[i] = y[i] + vr·pr − vi·pi (re) and y[i] + vr·pi + vi·pr (im):
// Y += dup_re(A)·P, then Y += dup_im(A)·PN. A holds the column's rows
// and is clobbered; T is scratch. X or Y registers alike.
#define COLNV(A, P, PN, Y, T) \
	VPERMILPS $0xF5, A, T; \
	VPERMILPS $0xA0, A, A; \
	VMULPS    P, A, A;     \
	VADDPS    A, Y, Y;     \
	VMULPS    PN, T, T;    \
	VADDPS    T, Y, Y

// func gemvNAVX(n int, alpha complex64, a []complex64, lda int, x, y []complex64)
//
// gemvN's loop: columns two per pass, rows four per
// register, eight per iteration; then a 4-row YMM block, a 2-row XMM block
// and a 1-row VMOVQ block. The pass's y rows are loaded and stored once.
TEXT ·gemvNAVX(SB), NOSPLIT, $0-96
	MOVQ         n+0(FP), CX
	MOVQ         a_base+16(FP), SI // column j
	MOVQ         lda+40(FP), R8
	SHLQ         $3, R8            // column stride in bytes
	MOVQ         x_base+48(FP), DX // &x[j]
	MOVQ         y_base+72(FP), DI
	MOVQ         y_len+80(FP), BX  // rows
	VBROADCASTSD negre<>(SB), Y14
	VBROADCASTSS alpha_real+8(FP), Y8
	VBROADCASTSS alpha_imag+12(FP), Y9
	VXORPS       Y14, Y9, Y9

pairN:
	CMPQ CX, $2
	JLT  oneN
	SCALEV((DX), Y0, Y1)
	SCALEV(8(DX), Y2, Y3)
	LEAQ (SI)(R8*1), R9  // column j+1
	MOVQ BX, AX          // rows left
	XORQ R10, R10        // byte offset of row i

pairRows8N:
	CMPQ    AX, $8
	JLT     pairRows4N
	VMOVUPS (DI)(R10*1), Y4
	VMOVUPS 32(DI)(R10*1), Y5
	VMOVUPS (SI)(R10*1), Y6
	VMOVUPS 32(SI)(R10*1), Y7
	COLNV(Y6, Y0, Y1, Y4, Y10)
	COLNV(Y7, Y0, Y1, Y5, Y11)
	VMOVUPS (R9)(R10*1), Y12
	VMOVUPS 32(R9)(R10*1), Y13
	COLNV(Y12, Y2, Y3, Y4, Y10)
	COLNV(Y13, Y2, Y3, Y5, Y11)
	VMOVUPS Y4, (DI)(R10*1)
	VMOVUPS Y5, 32(DI)(R10*1)
	ADDQ    $64, R10
	SUBQ    $8, AX
	JMP     pairRows8N

pairRows4N:
	CMPQ    AX, $4
	JLT     pairRows2N
	VMOVUPS (DI)(R10*1), Y4
	VMOVUPS (SI)(R10*1), Y6
	COLNV(Y6, Y0, Y1, Y4, Y10)
	VMOVUPS (R9)(R10*1), Y6
	COLNV(Y6, Y2, Y3, Y4, Y10)
	VMOVUPS Y4, (DI)(R10*1)
	ADDQ    $32, R10
	SUBQ    $4, AX

pairRows2N:
	CMPQ    AX, $2
	JLT     pairRow1N
	VMOVUPS (DI)(R10*1), X4
	VMOVUPS (SI)(R10*1), X6
	COLNV(X6, X0, X1, X4, X10)
	VMOVUPS (R9)(R10*1), X6
	COLNV(X6, X2, X3, X4, X10)
	VMOVUPS X4, (DI)(R10*1)
	ADDQ    $16, R10
	SUBQ    $2, AX

pairRow1N:
	TESTQ AX, AX
	JZ    pairDoneN
	VMOVQ (DI)(R10*1), X4
	VMOVQ (SI)(R10*1), X6
	COLNV(X6, X0, X1, X4, X10)
	VMOVQ (R9)(R10*1), X6
	COLNV(X6, X2, X3, X4, X10)
	VMOVQ X4, (DI)(R10*1)

pairDoneN:
	LEAQ (R9)(R8*1), SI
	ADDQ $16, DX
	SUBQ $2, CX
	JMP  pairN

oneN:
	TESTQ CX, CX
	JZ    doneN
	SCALEV((DX), Y0, Y1)
	MOVQ  BX, AX
	XORQ  R10, R10

oneRows8N:
	CMPQ    AX, $8
	JLT     oneRows4N
	VMOVUPS (DI)(R10*1), Y4
	VMOVUPS 32(DI)(R10*1), Y5
	VMOVUPS (SI)(R10*1), Y6
	VMOVUPS 32(SI)(R10*1), Y7
	COLNV(Y6, Y0, Y1, Y4, Y10)
	COLNV(Y7, Y0, Y1, Y5, Y11)
	VMOVUPS Y4, (DI)(R10*1)
	VMOVUPS Y5, 32(DI)(R10*1)
	ADDQ    $64, R10
	SUBQ    $8, AX
	JMP     oneRows8N

oneRows4N:
	CMPQ    AX, $4
	JLT     oneRows2N
	VMOVUPS (DI)(R10*1), Y4
	VMOVUPS (SI)(R10*1), Y6
	COLNV(Y6, Y0, Y1, Y4, Y10)
	VMOVUPS Y4, (DI)(R10*1)
	ADDQ    $32, R10
	SUBQ    $4, AX

oneRows2N:
	CMPQ    AX, $2
	JLT     oneRow1N
	VMOVUPS (DI)(R10*1), X4
	VMOVUPS (SI)(R10*1), X6
	COLNV(X6, X0, X1, X4, X10)
	VMOVUPS X4, (DI)(R10*1)
	ADDQ    $16, R10
	SUBQ    $2, AX

oneRow1N:
	TESTQ AX, AX
	JZ    doneN
	VMOVQ (DI)(R10*1), X4
	VMOVQ (SI)(R10*1), X6
	COLNV(X6, X0, X1, X4, X10)
	VMOVQ X4, (DI)(R10*1)

doneN:
	VZEROUPPER
	RET

// XROWV loads x[i], whose parts are at RE and IM, as
// XR = (xr, −xr, xr, −xr, …) and XI = (xi, xi, …). Needs Y14 = negim.
#define XROWV(RE, IM, XR, XI) \
	VBROADCASTSS RE, XR; \
	VBROADCASTSS IM, XI; \
	VXORPS       Y14, XR, XR

// DOTCV adds one row to the accumulators of a column block, S = (s_j, …),
// as gemvCGo's s += vr·xr + vi·xi (re) and s += vr·xi − vi·xr (im): with
// V = (a_j, …) of the row, t = V·XR + swap(V)·XI, then S += t. V is
// clobbered; T is scratch. X or Y registers alike.
#define DOTCV(V, XR, XI, S, T) \
	VPERMILPS $0xB1, V, T; \
	VMULPS    XR, V, V;    \
	VMULPS    XI, T, T;    \
	VADDPS    T, V, V;     \
	VADDPS    V, S, S

// ROWS2C splits rows i and i+1 of four columns, loaded 16 bytes each as
// L0..L3 = (a_c[i], a_c[i+1]), into R0 = (a_0[i] … a_3[i]) and
// R1 = (a_0[i+1] … a_3[i+1]): L0|L2 and L1|L3 joined by VINSERTF128, then
// interleaved by VUNPCKLPD/VUNPCKHPD. B is the row pointer of column 0,
// R8 the column stride, R12 three strides; T0, T1 are scratch.
#define ROWS2C(B, R0, R1, T0, T1) \
	VMOVUPS     (B), T0;                   \
	VINSERTF128 $1, (B)(R8*2), T0, T0;     \
	VMOVUPS     (B)(R8*1), T1;             \
	VINSERTF128 $1, (B)(R12*1), T1, T1;    \
	VUNPCKLPD   T1, T0, R0;                \
	VUNPCKHPD   T1, T0, R1

// ROW1C gathers row i of four columns, 8 bytes each, into
// R0 = (a_0[i] … a_3[i]), with the registers of ROWS2C; T0 and T1 are
// XMM scratch and TY is T0's YMM register.
#define ROW1C(B, R0, T0, T1, TY) \
	VMOVQ       (B), T0;               \
	VMOVHPS     (B)(R8*1), T0, T0;     \
	VMOVQ       (B)(R8*2), T1;         \
	VMOVHPS     (B)(R12*1), T1, T1;    \
	VINSERTF128 $1, T1, TY, R0

// func gemvCAVX(n int, alpha complex64, a []complex64, lda int, x []complex64, beta complex64, y []complex64)
//
// gemvC's loop: columns eight per pass as two YMM accumulators of four
// (two independent add chains), rows two per iteration, each column's two
// rows one 16-byte load; then 4-, 2- and 1-column passes. Each y[j] is
// then axpby(alpha, s_j, beta, y[j]), y read only when beta != 0.
TEXT ·gemvCAVX(SB), NOSPLIT, $0-104
	MOVQ         n+0(FP), CX
	MOVQ         a_base+16(FP), SI // column j
	MOVQ         lda+40(FP), R8
	SHLQ         $3, R8            // column stride in bytes
	LEAQ         (R8)(R8*2), R12   // three column strides
	MOVQ         x_base+48(FP), DX
	MOVQ         x_len+56(FP), BX  // rows
	MOVQ         y_base+80(FP), DI // &y[j]
	VBROADCASTSD negre<>(SB), Y14
	VBROADCASTSS alpha_real+8(FP), Y8
	VBROADCASTSS alpha_imag+12(FP), Y9
	VXORPS       Y14, Y9, Y9
	VBROADCASTSS beta_real+72(FP), Y10
	VBROADCASTSS beta_imag+76(FP), Y11
	VXORPS       Y14, Y11, Y11
	MOVQ         beta+72(FP), R10
	MOVQ         $0x7fffffff7fffffff, AX
	ANDQ         AX, R10           // zero iff beta == 0 (either zero's sign)
	VBROADCASTSD negim<>(SB), Y14

octC:
	CMPQ   CX, $8
	JLT    quadC
	MOVQ   SI, R9              // row i of column j
	LEAQ   (SI)(R8*4), R11     // row i of column j+4
	MOVQ   DX, R13             // &x[i]
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   BX, AX
	SHRQ   $1, AX              // row pairs
	JZ     octRow1C

octRows2C:
	XROWV((R13), 4(R13), Y2, Y3)
	XROWV(8(R13), 12(R13), Y12, Y13)
	ROWS2C(R9, Y6, Y7, Y4, Y5)
	DOTCV(Y6, Y2, Y3, Y0, Y4)
	DOTCV(Y7, Y12, Y13, Y0, Y5)
	ROWS2C(R11, Y6, Y7, Y4, Y5)
	DOTCV(Y6, Y2, Y3, Y1, Y4)
	DOTCV(Y7, Y12, Y13, Y1, Y5)
	ADDQ   $16, R9
	ADDQ   $16, R11
	ADDQ   $16, R13
	DECQ   AX
	JNZ    octRows2C

octRow1C:
	TESTQ  $1, BX
	JZ     octEndC
	XROWV((R13), 4(R13), Y2, Y3)
	ROW1C(R9, Y6, X4, X5, Y4)
	DOTCV(Y6, Y2, Y3, Y0, Y4)
	ROW1C(R11, Y6, X4, X5, Y4)
	DOTCV(Y6, Y2, Y3, Y1, Y4)

octEndC:
	MULCV(Y0, Y8, Y9, Y4)
	MULCV(Y1, Y8, Y9, Y5)
	TESTQ   R10, R10
	JZ      octStoreC
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y6
	MULCV(Y4, Y10, Y11, Y5)
	MULCV(Y6, Y10, Y11, Y7)
	VADDPS  Y4, Y0, Y0
	VADDPS  Y6, Y1, Y1

octStoreC:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	LEAQ    (SI)(R8*8), SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     octC

quadC:
	CMPQ   CX, $4
	JLT    pairC
	MOVQ   SI, R9
	MOVQ   DX, R13
	VXORPS Y0, Y0, Y0
	MOVQ   BX, AX
	SHRQ   $1, AX
	JZ     quadRow1C

quadRows2C:
	XROWV((R13), 4(R13), Y2, Y3)
	XROWV(8(R13), 12(R13), Y12, Y13)
	ROWS2C(R9, Y6, Y7, Y4, Y5)
	DOTCV(Y6, Y2, Y3, Y0, Y4)
	DOTCV(Y7, Y12, Y13, Y0, Y5)
	ADDQ   $16, R9
	ADDQ   $16, R13
	DECQ   AX
	JNZ    quadRows2C

quadRow1C:
	TESTQ  $1, BX
	JZ     quadEndC
	XROWV((R13), 4(R13), Y2, Y3)
	ROW1C(R9, Y6, X4, X5, Y4)
	DOTCV(Y6, Y2, Y3, Y0, Y4)

quadEndC:
	MULCV(Y0, Y8, Y9, Y4)
	TESTQ   R10, R10
	JZ      quadStoreC
	VMOVUPS (DI), Y4
	MULCV(Y4, Y10, Y11, Y5)
	VADDPS  Y4, Y0, Y0

quadStoreC:
	VMOVUPS Y0, (DI)
	LEAQ    (SI)(R8*4), SI
	ADDQ    $32, DI
	SUBQ    $4, CX

pairC:
	CMPQ   CX, $2
	JLT    oneC
	MOVQ   SI, R9
	MOVQ   DX, R13
	VXORPS X0, X0, X0
	MOVQ   BX, AX
	TESTQ  AX, AX
	JZ     pairEndC

pairRowC:
	XROWV((R13), 4(R13), Y2, Y3)
	VMOVQ   (R9), X4
	VMOVHPS (R9)(R8*1), X4, X4
	DOTCV(X4, X2, X3, X0, X5)
	ADDQ    $8, R9
	ADDQ    $8, R13
	DECQ    AX
	JNZ     pairRowC

pairEndC:
	MULCV(X0, X8, X9, X5)
	TESTQ   R10, R10
	JZ      pairStoreC
	VMOVUPS (DI), X4
	MULCV(X4, X10, X11, X5)
	VADDPS  X4, X0, X0

pairStoreC:
	VMOVUPS X0, (DI)
	LEAQ    (SI)(R8*2), SI
	ADDQ    $16, DI
	SUBQ    $2, CX

oneC:
	TESTQ  CX, CX
	JZ     doneC
	MOVQ   DX, R13
	VXORPS X0, X0, X0
	MOVQ   BX, AX
	TESTQ  AX, AX
	JZ     oneEndC

oneRowC:
	XROWV((R13), 4(R13), Y2, Y3)
	VMOVQ (SI), X4
	DOTCV(X4, X2, X3, X0, X5)
	ADDQ  $8, SI
	ADDQ  $8, R13
	DECQ  AX
	JNZ   oneRowC

oneEndC:
	MULCV(X0, X8, X9, X5)
	TESTQ R10, R10
	JZ    oneStoreC
	VMOVQ (DI), X4
	MULCV(X4, X10, X11, X5)
	VADDPS X4, X0, X0

oneStoreC:
	VMOVQ X0, (DI)

doneC:
	VZEROUPPER
	RET
