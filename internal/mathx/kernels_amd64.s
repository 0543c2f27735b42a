#include "textflag.h"

// AVX2 kernels behind the batched scoring API and the fictive fits'
// batched update (kernels_amd64.go). Each computes, lane by lane,
// exactly the IEEE operations of its scalar sibling, so the results
// are bit-identical to it.
//
// sigmoidAVX2 replays math.Exp's amd64 FMA path (math/exp_amd64.s,
// after Shibata, ISC'10, https://doi.org/10.1007/s00450-010-0108-2)
// four lanes at a time, on the same constants written the same way.
// The vector range -708 <= -|x| keeps every lane off archExp's
// overflow, denormal and non-finite branches: there k+1023 lies in
// [2, 1023], so 2^k is one biased-exponent shift.

// sign bit
DATA sigk<>+0(SB)/8, $0x8000000000000000
DATA sigk<>+8(SB)/8, $0x8000000000000000
DATA sigk<>+16(SB)/8, $0x8000000000000000
DATA sigk<>+24(SB)/8, $0x8000000000000000
// lower bound of the vector range
DATA sigk<>+32(SB)/8, $-708.0
DATA sigk<>+40(SB)/8, $-708.0
DATA sigk<>+48(SB)/8, $-708.0
DATA sigk<>+56(SB)/8, $-708.0
// LOG2E
DATA sigk<>+64(SB)/8, $1.4426950408889634073599246810018920
DATA sigk<>+72(SB)/8, $1.4426950408889634073599246810018920
DATA sigk<>+80(SB)/8, $1.4426950408889634073599246810018920
DATA sigk<>+88(SB)/8, $1.4426950408889634073599246810018920
// LN2U
DATA sigk<>+96(SB)/8, $0.69314718055966295651160180568695068359375
DATA sigk<>+104(SB)/8, $0.69314718055966295651160180568695068359375
DATA sigk<>+112(SB)/8, $0.69314718055966295651160180568695068359375
DATA sigk<>+120(SB)/8, $0.69314718055966295651160180568695068359375
// LN2L
DATA sigk<>+128(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA sigk<>+136(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA sigk<>+144(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA sigk<>+152(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
// argument reduction
DATA sigk<>+160(SB)/8, $0.0625
DATA sigk<>+168(SB)/8, $0.0625
DATA sigk<>+176(SB)/8, $0.0625
DATA sigk<>+184(SB)/8, $0.0625
// Taylor coefficients, highest order first
DATA sigk<>+192(SB)/8, $2.4801587301587301587e-5
DATA sigk<>+200(SB)/8, $2.4801587301587301587e-5
DATA sigk<>+208(SB)/8, $2.4801587301587301587e-5
DATA sigk<>+216(SB)/8, $2.4801587301587301587e-5
DATA sigk<>+224(SB)/8, $1.9841269841269841270e-4
DATA sigk<>+232(SB)/8, $1.9841269841269841270e-4
DATA sigk<>+240(SB)/8, $1.9841269841269841270e-4
DATA sigk<>+248(SB)/8, $1.9841269841269841270e-4
DATA sigk<>+256(SB)/8, $1.3888888888888888889e-3
DATA sigk<>+264(SB)/8, $1.3888888888888888889e-3
DATA sigk<>+272(SB)/8, $1.3888888888888888889e-3
DATA sigk<>+280(SB)/8, $1.3888888888888888889e-3
DATA sigk<>+288(SB)/8, $8.3333333333333333333e-3
DATA sigk<>+296(SB)/8, $8.3333333333333333333e-3
DATA sigk<>+304(SB)/8, $8.3333333333333333333e-3
DATA sigk<>+312(SB)/8, $8.3333333333333333333e-3
DATA sigk<>+320(SB)/8, $4.1666666666666666667e-2
DATA sigk<>+328(SB)/8, $4.1666666666666666667e-2
DATA sigk<>+336(SB)/8, $4.1666666666666666667e-2
DATA sigk<>+344(SB)/8, $4.1666666666666666667e-2
DATA sigk<>+352(SB)/8, $1.6666666666666666667e-1
DATA sigk<>+360(SB)/8, $1.6666666666666666667e-1
DATA sigk<>+368(SB)/8, $1.6666666666666666667e-1
DATA sigk<>+376(SB)/8, $1.6666666666666666667e-1
DATA sigk<>+384(SB)/8, $0.5
DATA sigk<>+392(SB)/8, $0.5
DATA sigk<>+400(SB)/8, $0.5
DATA sigk<>+408(SB)/8, $0.5
DATA sigk<>+416(SB)/8, $1.0
DATA sigk<>+424(SB)/8, $1.0
DATA sigk<>+432(SB)/8, $1.0
DATA sigk<>+440(SB)/8, $1.0
DATA sigk<>+448(SB)/8, $2.0
DATA sigk<>+456(SB)/8, $2.0
DATA sigk<>+464(SB)/8, $2.0
DATA sigk<>+472(SB)/8, $2.0
// exponent bias, four int32 lanes
DATA sigk<>+480(SB)/4, $1023
DATA sigk<>+484(SB)/4, $1023
DATA sigk<>+488(SB)/4, $1023
DATA sigk<>+492(SB)/4, $1023
GLOBL sigk<>(SB), RODATA|NOPTR, $496

// func sigmoidAVX2(x, dst []float64) int
//
// len(x) is a multiple of 4 and len(dst) == len(x). Stores Sigmoid(x[i])
// into dst[i] block by block and returns the index of the first block
// with a lane outside -708 <= -|x| (NaN, ±Inf and large |x| included),
// or len(x).
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	VMOVUPD sigk<>+416(SB), Y15 // 1.0
	VXORPD  Y14, Y14, Y14       // +0
	XORQ    AX, AX

sigblock:
	CMPQ      AX, CX
	JGE       sigdone
	VMOVUPD   (SI)(AX*8), Y0
	VORPD     sigk<>+0(SB), Y0, Y1        // a = -|x|, the argument Sigmoid passes to Exp
	VCMPPD    $0x1d, sigk<>+32(SB), Y1, Y2 // a >= -708 (ordered: false for NaN)
	VMOVMSKPD Y2, DX
	CMPQ      DX, $15
	JNE       sigdone

	// k = round(a·LOG2E); a -= k·LN2U; a -= k·LN2L; a *= 1/16
	VMULPD       sigk<>+64(SB), Y1, Y3
	VCVTPD2DQY   Y3, X4
	VCVTDQ2PD    X4, Y3
	VFNMADD231PD sigk<>+96(SB), Y3, Y1
	VFNMADD231PD sigk<>+128(SB), Y3, Y1
	VMULPD       sigk<>+160(SB), Y1, Y1

	// Taylor series by Horner's rule
	VMOVUPD     sigk<>+192(SB), Y5
	VFMADD213PD sigk<>+224(SB), Y1, Y5
	VFMADD213PD sigk<>+256(SB), Y1, Y5
	VFMADD213PD sigk<>+288(SB), Y1, Y5
	VFMADD213PD sigk<>+320(SB), Y1, Y5
	VFMADD213PD sigk<>+352(SB), Y1, Y5
	VFMADD213PD sigk<>+384(SB), Y1, Y5
	VFMADD213PD Y15, Y1, Y5

	// undo the reduction: four squarings of 1+a in the form a·(a+2),
	// the last one fused with the +1
	VMULPD      Y5, Y1, Y1
	VADDPD      sigk<>+448(SB), Y1, Y5
	VMULPD      Y5, Y1, Y1
	VADDPD      sigk<>+448(SB), Y1, Y5
	VMULPD      Y5, Y1, Y1
	VADDPD      sigk<>+448(SB), Y1, Y5
	VMULPD      Y5, Y1, Y1
	VADDPD      sigk<>+448(SB), Y1, Y5
	VFMADD213PD Y15, Y5, Y1

	// e = fr·2^k
	VPADDD    sigk<>+480(SB), X4, X4
	VPMOVZXDQ X4, Y6
	VPSLLQ    $52, Y6, Y6
	VMULPD    Y6, Y1, Y1

	// x >= 0: 1/(1+e); otherwise e/(1+e)
	VADDPD    Y15, Y1, Y2
	VCMPPD    $0x1d, Y14, Y0, Y3
	VBLENDVPD Y3, Y15, Y1, Y4
	VDIVPD    Y2, Y4, Y4
	VMOVUPD   Y4, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       sigblock

sigdone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func gemvAVX2(m []float64, cols int, rows []int, v, dst []float64)
//
// dst[i] = dotRow(row r, v) with r = rows[i], or r = i when rows is nil.
// cols is a positive multiple of 4 and len(v) == cols; the caller has
// checked that every row lies inside m. Dot's accumulators s0..s3 are
// the lanes of Y0 (a multiply, then an add: no FMA), reduced as
// (s0+s1)+(s2+s3).
TEXT ·gemvAVX2(SB), NOSPLIT, $0-104
	MOVQ m_base+0(FP), SI
	MOVQ cols+24(FP), CX
	MOVQ rows_base+32(FP), R8
	MOVQ v_base+56(FP), DI
	MOVQ dst_base+80(FP), R9
	MOVQ dst_len+88(FP), R10
	MOVQ CX, R11
	SHLQ $3, R11 // row stride in bytes
	XORQ BX, BX

gemvrow:
	CMPQ  BX, R10
	JGE   gemvdone
	MOVQ  BX, AX
	TESTQ R8, R8
	JZ    gemvaddr
	MOVQ  (R8)(BX*8), AX

gemvaddr:
	IMULQ  R11, AX
	ADDQ   SI, AX
	VXORPD Y0, Y0, Y0
	XORQ   DX, DX

gemvcol:
	VMOVUPD (AX)(DX*8), Y1
	VMULPD  (DI)(DX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     gemvcol

	VEXTRACTF128 $1, Y0, X1
	VHADDPD      X1, X0, X0 // (s0+s1, s2+s3)
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0
	VMOVSD       X0, (R9)(BX*8)
	INCQ         BX
	JMP          gemvrow

gemvdone:
	VZEROUPPER
	RET

// func dotNormRowsAVX2(m []float64, cols int, rows []int, v, dots, sqnorms []float64)
//
// dots[i] = dotRow(row, v) and sqnorms[i] = dotRow(row, row) for
// row = rows[i], both in gemvAVX2's order, under the same contract.
TEXT ·dotNormRowsAVX2(SB), NOSPLIT, $0-128
	MOVQ m_base+0(FP), SI
	MOVQ cols+24(FP), CX
	MOVQ rows_base+32(FP), R8
	MOVQ rows_len+40(FP), R10
	MOVQ v_base+56(FP), DI
	MOVQ dots_base+80(FP), R9
	MOVQ sqnorms_base+104(FP), R12
	MOVQ CX, R11
	SHLQ $3, R11
	XORQ BX, BX

dnrow:
	CMPQ   BX, R10
	JGE    dndone
	MOVQ   (R8)(BX*8), AX
	IMULQ  R11, AX
	ADDQ   SI, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	XORQ   DX, DX

dncol:
	VMOVUPD (AX)(DX*8), Y1
	VMULPD  (DI)(DX*8), Y1, Y3
	VADDPD  Y3, Y0, Y0
	VMULPD  Y1, Y1, Y3
	VADDPD  Y3, Y2, Y2
	ADDQ    $4, DX
	CMPQ    DX, CX
	JLT     dncol

	VEXTRACTF128 $1, Y0, X1
	VHADDPD      X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0
	VMOVSD       X0, (R9)(BX*8)
	VEXTRACTF128 $1, Y2, X3
	VHADDPD      X3, X2, X2
	VPERMILPD    $1, X2, X3
	VADDSD       X3, X2, X2
	VMOVSD       X2, (R12)(BX*8)
	INCQ         BX
	JMP          dnrow

dndone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func decayStep3RowsAVX2(lr, l2, c, a []float64, b, x [][]float64)
//
// For every row j: x[j][i] -= lr[j]*(c[j]*a[i]*b[j][i] + l2[j]*x[j][i]),
// with DecayStep3's operations in its order, each rounded once (a
// multiply, then an add: no FMA). len(a) is a positive multiple of 4,
// and the caller has checked every length.
TEXT ·decayStep3RowsAVX2(SB), NOSPLIT, $0-144
	MOVQ lr_base+0(FP), R8
	MOVQ l2_base+24(FP), R9
	MOVQ c_base+48(FP), R10
	MOVQ a_base+72(FP), SI
	MOVQ a_len+80(FP), CX
	MOVQ b_base+96(FP), R11
	MOVQ x_base+120(FP), R12
	MOVQ x_len+128(FP), R13
	XORQ BX, BX

decayrow:
	CMPQ         BX, R13
	JGE          decaydone
	VBROADCASTSD (R8)(BX*8), Y0  // lr
	VBROADCASTSD (R9)(BX*8), Y1  // l2
	VBROADCASTSD (R10)(BX*8), Y2 // c
	MOVQ         BX, AX
	IMULQ        $24, AX         // slice header stride
	MOVQ         (R11)(AX*1), DX // b[j]
	MOVQ         (R12)(AX*1), DI // x[j]
	XORQ         AX, AX

decaycol:
	VMULPD  (SI)(AX*8), Y2, Y3 // c*a
	VMULPD  (DX)(AX*8), Y3, Y3 // ·b
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  Y4, Y1, Y5         // l2*x
	VADDPD  Y5, Y3, Y3
	VMULPD  Y3, Y0, Y3         // lr·(…)
	VSUBPD  Y3, Y4, Y4         // x − lr·(…)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     decaycol
	INCQ    BX
	JMP     decayrow

decaydone:
	VZEROUPPER
	RET
