// AVX2+FMA kernels for the exact near fields and the far kernel table
// (kernels.go, DESIGN.md §16). Every lane performs the IEEE operations of
// the Go loop it replaces, in the same order and unfused, so a lane's
// result is bitwise the Go loop's. The one fused sequence is exp, a
// lane-wise copy of the FMA path of math.Exp's amd64 assembly (the
// SLEEF-derived method of Shibata, ISC'10); lanes it does not cover
// (|x| ≥ 708 or NaN) and lanes with a NaN result are flagged for the Go
// fallback instead of being computed here.

#include "go_asm.h"
#include "textflag.h"

// kc holds each constant four times, one 32-byte row per constant, so the
// arithmetic can take it as a 256-bit memory operand.
#define ROW(off, val) DATA kc<>+(off)(SB)/8, val; DATA kc<>+(off+8)(SB)/8, val; DATA kc<>+(off+16)(SB)/8, val; DATA kc<>+(off+24)(SB)/8, val

ROW(0, $0x7fffffffffffffff)
ROW(32, $0x8000000000000000)
ROW(64, $708.0)
ROW(96, $1.4426950408889634073599246810018920)
ROW(128, $0.69314718055966295651160180568695068359375)
ROW(160, $0.28235290563031577122588448175013436025525412068e-12)
ROW(192, $0.0625)
ROW(224, $2.4801587301587301587e-5)
ROW(256, $1.9841269841269841270e-4)
ROW(288, $1.3888888888888888889e-3)
ROW(320, $8.3333333333333333333e-3)
ROW(352, $4.1666666666666666667e-2)
ROW(384, $1.6666666666666666667e-1)
ROW(416, $0.5)
ROW(448, $1.0)
ROW(480, $2.0)
ROW(512, $4.0)
ROW(544, $1023)
GLOBL kc<>(SB), RODATA|NOPTR, $576

#define KABS kc<>+0(SB)
#define KSIGN kc<>+32(SB)
#define KLIM kc<>+64(SB)
#define KLOG2E kc<>+96(SB)
#define KLN2U kc<>+128(SB)
#define KLN2L kc<>+160(SB)
#define KSIXTEENTH kc<>+192(SB)
#define KC8 kc<>+224(SB)
#define KC7 kc<>+256(SB)
#define KC6 kc<>+288(SB)
#define KC5 kc<>+320(SB)
#define KC4 kc<>+352(SB)
#define KC3 kc<>+384(SB)
#define KHALF kc<>+416(SB)
#define KONE kc<>+448(SB)
#define KTWO kc<>+480(SB)
#define KFOUR kc<>+512(SB)
#define KBIAS kc<>+544(SB)

// EXP replaces Y4 = x by exp(x) lane-wise and sets Y5 to all ones in the
// lanes it computed exactly (|x| < 708), zero elsewhere. Clobbers Y6, Y7.
// The sequence is math.Exp's avxfma path: k = round(x·log2e) in the
// current rounding mode, x −= k·ln2 in two fused steps, x /= 16, a fused
// Horner polynomial, four x(x+2) squarings (the last fused with +1), and
// the scale by 2^k built in the exponent field (k+1023 ≥ 2 here, so the
// product never takes archExp's denormal branch).
#define EXP \
	VANDPD       KABS, Y4, Y5; \
	VCMPPD       $0x11, KLIM, Y5, Y5; \
	VMULPD       KLOG2E, Y4, Y6; \
	VCVTPD2DQY   Y6, X7; \
	VCVTDQ2PD    X7, Y6; \
	VFNMADD231PD KLN2U, Y6, Y4; \
	VFNMADD231PD KLN2L, Y6, Y4; \
	VMULPD       KSIXTEENTH, Y4, Y4; \
	VMOVUPD      KC8, Y6; \
	VFMADD213PD  KC7, Y4, Y6; \
	VFMADD213PD  KC6, Y4, Y6; \
	VFMADD213PD  KC5, Y4, Y6; \
	VFMADD213PD  KC4, Y4, Y6; \
	VFMADD213PD  KC3, Y4, Y6; \
	VFMADD213PD  KHALF, Y4, Y6; \
	VFMADD213PD  KONE, Y4, Y6; \
	VMULPD       Y6, Y4, Y4; \
	VADDPD       KTWO, Y4, Y6; \
	VMULPD       Y6, Y4, Y4; \
	VADDPD       KTWO, Y4, Y6; \
	VMULPD       Y6, Y4, Y4; \
	VADDPD       KTWO, Y4, Y6; \
	VMULPD       Y6, Y4, Y4; \
	VADDPD       KTWO, Y4, Y6; \
	VFMADD213PD  KONE, Y6, Y4; \
	VPMOVSXDQ    X7, Y6; \
	VPADDQ       KBIAS, Y6, Y6; \
	VPSLLQ       $52, Y6, Y6; \
	VMULPD       Y6, Y4, Y4

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func expAVX(x, out *[4]float64) (ok uint8)
TEXT ·expAVX(SB), NOSPLIT, $0-17
	MOVQ    x+0(FP), SI
	MOVQ    out+8(FP), DI
	VMOVUPD (SI), Y4
	EXP
	VMOVUPD Y4, (DI)
	VMOVMSKPD Y5, AX
	MOVB    AX, ok+16(FP)
	VZEROUPPER
	RET

// GATHER3 loads the positions of the atoms at the four T_A item
// positions in X0 from the atomRec array at R into Y10 (x), Y11 (y) and
// Y12 (z), and leaves the positions ×4 in X1. An atomRec is 32 bytes with
// pos at 0 (kernels_amd64.go checks it), so X1·8 is a record's offset.
// Clobbers Y15, the gather mask.
#define GATHER3(R) \
	VPSLLD     $2, X0, X1; \
	VPCMPEQQ   Y15, Y15, Y15; \
	VGATHERDPD Y15, 0(R)(X1*8), Y10; \
	VPCMPEQQ   Y15, Y15, Y15; \
	VGATHERDPD Y15, 8(R)(X1*8), Y11; \
	VPCMPEQQ   Y15, Y15, Y15; \
	VGATHERDPD Y15, 16(R)(X1*8), Y12

// func bornNearAVX(recs *atomRec, pos *int32, groups int, pts *surface.QPoint, items *int32, nq int, r6 bool, out *float64, flags *uint8)
//
// Lane group g holds the atoms at T_A item positions pos[4g..4g+4) of
// recs. Each lane sums the quadrature points pts[items[0..nq)] in order:
// sum += w·((q−a)·n) / |q−a|^p, p = 6 (r6) or 4. A QPoint is 64 bytes:
// Pos at 0, Normal at 24, Weight at 48 (kernels_amd64.go checks it).
// flags[g] receives the lanes of group g whose sum is NaN.
#define QP_POS 0
#define QP_NORMAL 24
#define QP_WEIGHT 48
TEXT ·bornNearAVX(SB), NOSPLIT, $0-72
	MOVQ     recs+0(FP), R13
	MOVQ     pos+8(FP), SI
	MOVQ     groups+16(FP), CX
	MOVQ     pts+24(FP), DX
	MOVQ     items+32(FP), R12
	MOVQ     nq+40(FP), R8
	MOVBLZX  r6+48(FP), R9
	MOVQ     out+56(FP), DI
	MOVQ     flags+64(FP), BX
	TESTQ    CX, CX
	JEQ      bdone

bgroup:
	VMOVDQU  (SI), X0
	GATHER3(R13)
	VXORPD   Y13, Y13, Y13
	MOVQ     R12, R10
	MOVQ     R8, R11
	TESTQ    R11, R11
	JEQ      bstore

bq:
	// AX = &pts[items[k]]
	MOVLQSX  (R10), AX
	SHLQ     $6, AX
	ADDQ     DX, AX
	// dv = q − a
	VBROADCASTSD (QP_POS+0)(AX), Y0
	VSUBPD   Y10, Y0, Y0
	VBROADCASTSD (QP_POS+8)(AX), Y1
	VSUBPD   Y11, Y1, Y1
	VBROADCASTSD (QP_POS+16)(AX), Y2
	VSUBPD   Y12, Y2, Y2
	// r2 = dx·dx + dy·dy + dz·dz; rp = r2·r2 (·r2)
	VMULPD   Y0, Y0, Y3
	VMULPD   Y1, Y1, Y4
	VADDPD   Y4, Y3, Y3
	VMULPD   Y2, Y2, Y4
	VADDPD   Y4, Y3, Y3
	VMULPD   Y3, Y3, Y4
	TESTQ    R9, R9
	JEQ      br4
	VMULPD   Y3, Y4, Y4

br4:
	// dot = dx·nx + dy·ny + dz·nz; sum += w·dot / rp
	VBROADCASTSD (QP_NORMAL+0)(AX), Y5
	VMULPD   Y5, Y0, Y0
	VBROADCASTSD (QP_NORMAL+8)(AX), Y5
	VMULPD   Y5, Y1, Y1
	VADDPD   Y1, Y0, Y0
	VBROADCASTSD (QP_NORMAL+16)(AX), Y5
	VMULPD   Y5, Y2, Y2
	VADDPD   Y2, Y0, Y0
	VBROADCASTSD QP_WEIGHT(AX), Y5
	VMULPD   Y0, Y5, Y0
	VDIVPD   Y4, Y0, Y0
	VADDPD   Y0, Y13, Y13
	ADDQ     $4, R10
	DECQ     R11
	JNZ      bq

bstore:
	VMOVUPD  Y13, (DI)
	VCMPPD   $3, Y13, Y13, Y0
	VMOVMSKPD Y0, AX
	MOVB     AX, (BX)
	ADDQ     $16, SI
	ADDQ     $32, DI
	INCQ     BX
	DECQ     CX
	JNZ      bgroup

bdone:
	VZEROUPPER
	RET

// func nearRowsAVX(recs *atomRec, radii *float64, pos *int32, groups int, v *atomRec, vR *float64, nv int, rows *float64, flags *uint8)
//
// Lane group g holds the source atoms at T_A item positions
// pos[4g..4g+4) of recs, with Born radii radii[pos]. Each lane adds its
// atom's pair terms q_a·q_b·(1/√(r² + R_aR_b·exp(−r²/(4R_aR_b)))) against
// the target atoms v[0..nv), radii vR, in target order, to a row sum that
// starts at +0, and rows[4g+l] receives lane l's row. flags[g] receives
// the lanes with a term out of exp's range or NaN, or a NaN row: the Go
// loop recomputes those rows.
TEXT ·nearRowsAVX(SB), NOSPLIT, $0-72
	MOVQ     recs+0(FP), AX
	MOVQ     radii+8(FP), BX
	MOVQ     pos+16(FP), SI
	MOVQ     groups+24(FP), CX
	MOVQ     v+32(FP), R8
	MOVQ     vR+40(FP), R9
	MOVQ     nv+48(FP), R10
	MOVQ     rows+56(FP), DI
	MOVQ     flags+64(FP), R11
	TESTQ    CX, CX
	JEQ      ndone

ngroup:
	VMOVDQU  (SI), X0
	GATHER3(AX)
	VPCMPEQQ   Y15, Y15, Y15
	VGATHERDPD Y15, 24(AX)(X1*8), Y13
	VPCMPEQQ   Y15, Y15, Y15
	VGATHERDPD Y15, 0(BX)(X0*8), Y14
	VXORPD   Y8, Y8, Y8       // row sums, one per lane
	VPCMPEQQ Y9, Y9, Y9       // lanes still exact
	MOVQ     R8, DX
	MOVQ     R9, R12
	MOVQ     R10, R13
	TESTQ    R13, R13
	JEQ      nstore

nloop:
	// r2 = |p_u − p_v|²
	VBROADCASTSD 0(DX), Y0
	VSUBPD   Y0, Y10, Y0
	VMULPD   Y0, Y0, Y0
	VBROADCASTSD 8(DX), Y1
	VSUBPD   Y1, Y11, Y1
	VMULPD   Y1, Y1, Y1
	VADDPD   Y1, Y0, Y0
	VBROADCASTSD 16(DX), Y1
	VSUBPD   Y1, Y12, Y1
	VMULPD   Y1, Y1, Y1
	VADDPD   Y1, Y0, Y0
	// rr = R_u·R_v; x = −r2 / (4·rr)
	VBROADCASTSD (R12), Y2
	VMULPD   Y2, Y14, Y2
	VMULPD   KFOUR, Y2, Y3
	VXORPD   KSIGN, Y0, Y4
	VDIVPD   Y3, Y4, Y4
	EXP
	// row += (q_u·q_v) · (1/√(r2 + rr·e))
	VMULPD   Y4, Y2, Y2
	VADDPD   Y2, Y0, Y2
	VSQRTPD  Y2, Y2
	VMOVUPD  KONE, Y3
	VDIVPD   Y2, Y3, Y2
	VBROADCASTSD 24(DX), Y3
	VMULPD   Y3, Y13, Y3
	VMULPD   Y2, Y3, Y2
	VADDPD   Y2, Y8, Y8
	// drop lanes out of exp's range or with a NaN term
	VCMPPD   $7, Y2, Y2, Y3
	VANDPD   Y3, Y5, Y5
	VANDPD   Y5, Y9, Y9
	ADDQ     $32, DX
	ADDQ     $8, R12
	DECQ     R13
	JNZ      nloop

nstore:
	VMOVUPD  Y8, (DI)
	VCMPPD   $7, Y8, Y8, Y3
	VANDPD   Y3, Y9, Y9
	VMOVMSKPD Y9, R13
	XORL     $15, R13
	MOVB     R13, (R11)
	ADDQ     $16, SI
	ADDQ     $32, DI
	INCQ     R11
	DECQ     CX
	JNZ      ngroup

ndone:
	VZEROUPPER
	RET

// FARLANES computes the far kernel table lanes for t = Y8, with r2 in
// Y10 and −r2 in Y11: e in Y4, invF in Y2, and in AX one bit per lane the
// Go loop must recompute. Clobbers Y3, Y5, Y6, Y7.
#define FARLANES \
	VMULPD    KFOUR, Y8, Y3; \
	VDIVPD    Y3, Y11, Y4; \
	EXP; \
	VMULPD    Y4, Y8, Y2; \
	VADDPD    Y2, Y10, Y2; \
	VSQRTPD   Y2, Y2; \
	VMOVUPD   KONE, Y3; \
	VDIVPD    Y2, Y3, Y2; \
	VCMPPD    $7, Y4, Y4, Y3; \
	VANDPD    Y3, Y5, Y5; \
	VCMPPD    $7, Y2, Y2, Y3; \
	VANDPD    Y3, Y5, Y5; \
	VMOVMSKPD Y5, AX; \
	XORL      $15, AX

// func farTableAVX(pw *float64, n int, r2 float64, out *farKernel) (bad bool)
//
// For k < n: out[k].e = exp(−r2/(4·pw[k])) and out[k].invF =
// 1/√(r2 + pw[k]·e). bad reports an entry the Go loop must recompute.
TEXT ·farTableAVX(SB), NOSPLIT, $0-33
	MOVQ     pw+0(FP), SI
	MOVQ     n+8(FP), CX
	VBROADCASTSD r2+16(FP), Y10
	MOVQ     out+24(FP), DI
	VXORPD   KSIGN, Y10, Y11
	XORL     R12, R12
	CMPQ     CX, $4
	JLT      ftail

fgroup:
	VMOVUPD  (SI), Y8
	FARLANES
	ORL      AX, R12
	VMOVSD   X4, farKernel_e(DI)
	VMOVSD   X2, farKernel_invF(DI)
	VMOVHPD  X4, (farKernel__size+farKernel_e)(DI)
	VMOVHPD  X2, (farKernel__size+farKernel_invF)(DI)
	VEXTRACTF128 $1, Y4, X4
	VEXTRACTF128 $1, Y2, X2
	VMOVSD   X4, (2*farKernel__size+farKernel_e)(DI)
	VMOVSD   X2, (2*farKernel__size+farKernel_invF)(DI)
	VMOVHPD  X4, (3*farKernel__size+farKernel_e)(DI)
	VMOVHPD  X2, (3*farKernel__size+farKernel_invF)(DI)
	ADDQ     $32, SI
	ADDQ     $(4*farKernel__size), DI
	SUBQ     $4, CX
	CMPQ     CX, $4
	JGE      fgroup

ftail:
	TESTQ    CX, CX
	JEQ      fdone
	// The last 1–3 entries: load them into the low lanes (zeros above),
	// compute all four lanes and keep only the loaded ones.
	VXORPD   Y8, Y8, Y8
	VMOVSD   (SI), X8
	CMPQ     CX, $2
	JLT      fload
	VMOVHPD  8(SI), X8, X8
	CMPQ     CX, $3
	JLT      fload
	VMOVSD   16(SI), X9
	VINSERTF128 $1, X9, Y8, Y8

fload:
	FARLANES
	VMOVSD   X4, farKernel_e(DI)
	VMOVSD   X2, farKernel_invF(DI)
	CMPQ     CX, $2
	JLT      fkeep1
	VMOVHPD  X4, (farKernel__size+farKernel_e)(DI)
	VMOVHPD  X2, (farKernel__size+farKernel_invF)(DI)
	CMPQ     CX, $3
	JLT      fkeep2
	VEXTRACTF128 $1, Y4, X4
	VEXTRACTF128 $1, Y2, X2
	VMOVSD   X4, (2*farKernel__size+farKernel_e)(DI)
	VMOVSD   X2, (2*farKernel__size+farKernel_invF)(DI)
	ANDL     $7, AX
	JMP      fkept

fkeep1:
	ANDL     $1, AX
	JMP      fkept

fkeep2:
	ANDL     $3, AX

fkept:
	ORL      AX, R12

fdone:
	TESTL    R12, R12
	SETNE    bad+32(FP)
	VZEROUPPER
	RET
