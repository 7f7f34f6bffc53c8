//go:build !purego

// AVX2 and AVX-512 bodies of the likelihood kernels in likelihood.go. The
// exp and log sequences transcribe the standard library's math.Exp
// (exp_amd64.s, its avxfma path) and math.Log (log_amd64.s) one operation
// at a time, a lane per element: same constants, same operations in the
// same order, the VFMADDs where exp_amd64.s has them and nowhere else. Each
// operation is correctly rounded, so every lane carries the bits the scalar
// code computes for its element. The two places the scalar code converts an
// integer are matched exactly: exp's k = CVTSD2SL(x·log2e) is VCVTPD2DQ
// (the same MXCSR rounding), and log's exponent, an integer below 2^11,
// becomes a float64 by the exact 2^52 trick. The branches of the scalar
// code become a lane test: a group of lanes any of which leaves the
// straight-line path is not stored and the body returns its index.
//
// Every loop runs whole groups of four (AVX2) or eight (AVX-512) lanes,
// the last group masked — VMASKMOVPD or an opmask register — so the lanes
// past n are neither read nor written; the lane test ignores them. The
// AVX-512 bodies use AVX512F instructions only (VPXORQ/VPANDQ/VPORQ, not
// the DQ forms of VXORPD/VANDPD/VORPD), with AVX2 for the eight 32-bit
// exponents, which fit a YMM. VZEROUPPER precedes every RET.

#include "textflag.h"

#define BCAST8(sym, v) \
	DATA sym<>+0(SB)/8, v; \
	DATA sym<>+8(SB)/8, v; \
	DATA sym<>+16(SB)/8, v; \
	DATA sym<>+24(SB)/8, v; \
	DATA sym<>+32(SB)/8, v; \
	DATA sym<>+40(SB)/8, v; \
	DATA sym<>+48(SB)/8, v; \
	DATA sym<>+56(SB)/8, v; \
	GLOBL sym<>(SB), RODATA|NOPTR, $64

// Shared.
BCAST8(signbit, $0x8000000000000000)
BCAST8(half, $0.5)
BCAST8(one, $1.0)
BCAST8(two, $2.0)

// exp_amd64.s: LOG2E, LN2U, LN2L and the Taylor coefficients (exprodata).
BCAST8(log2e, $1.4426950408889634073599246810018920)
BCAST8(ln2u, $0.69314718055966295651160180568695068359375)
BCAST8(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
BCAST8(sixteenth, $0.0625)
BCAST8(expc8, $2.4801587301587301587e-5)
BCAST8(expc7, $1.9841269841269841270e-4)
BCAST8(expc6, $1.3888888888888888889e-3)
BCAST8(expc5, $8.3333333333333333333e-3)
BCAST8(expc4, $4.1666666666666666667e-2)
BCAST8(expc3, $1.6666666666666666667e-1)

// The biased exponent bounds, eight int32 lanes: the straight-line path
// needs 1 <= k+0x3FF <= 0x7FE.
DATA expbias<>+0(SB)/4, $0x3FF
DATA expbias<>+4(SB)/4, $0x3FF
DATA expbias<>+8(SB)/4, $0x3FF
DATA expbias<>+12(SB)/4, $0x3FF
DATA expbias<>+16(SB)/4, $0x3FF
DATA expbias<>+20(SB)/4, $0x3FF
DATA expbias<>+24(SB)/4, $0x3FF
DATA expbias<>+28(SB)/4, $0x3FF
GLOBL expbias<>(SB), RODATA|NOPTR, $32
DATA expmax<>+0(SB)/4, $0x7FF
DATA expmax<>+4(SB)/4, $0x7FF
DATA expmax<>+8(SB)/4, $0x7FF
DATA expmax<>+12(SB)/4, $0x7FF
DATA expmax<>+16(SB)/4, $0x7FF
DATA expmax<>+20(SB)/4, $0x7FF
DATA expmax<>+24(SB)/4, $0x7FF
DATA expmax<>+28(SB)/4, $0x7FF
GLOBL expmax<>(SB), RODATA|NOPTR, $32

// log_amd64.s: HSqrt2, Ln2Hi, Ln2Lo, L1..L7, and the bit masks of its
// Frexp; magic52 and c1022 turn the exponent field e into k = e − 0x3FE.
BCAST8(posinf, $0x7FF0000000000000)
BCAST8(mantissa, $0x000FFFFFFFFFFFFF)
BCAST8(magic52, $0x4330000000000000)
BCAST8(c1022, $1022.0)
BCAST8(hsqrt2, $7.07106781186547524401e-01)
BCAST8(ln2hi, $6.93147180369123816490e-01)
BCAST8(ln2lo, $1.90821492927058770002e-10)
BCAST8(logl1, $6.666666666666735130e-01)
BCAST8(logl2, $3.999999999940941908e-01)
BCAST8(logl3, $2.857142874366239149e-01)
BCAST8(logl4, $2.222219843214978396e-01)
BCAST8(logl5, $1.818357216161805012e-01)
BCAST8(logl6, $1.531383769920937332e-01)
BCAST8(logl7, $1.479819860511658591e-01)

// AVX2 lane masks: the 32 bytes at lanemask+8·(4−r) select the first r
// lanes (also read by grad_amd64.s).
DATA ·lanemask+0(SB)/8, $-1
DATA ·lanemask+8(SB)/8, $-1
DATA ·lanemask+16(SB)/8, $-1
DATA ·lanemask+24(SB)/8, $-1
DATA ·lanemask+32(SB)/8, $0
DATA ·lanemask+40(SB)/8, $0
DATA ·lanemask+48(SB)/8, $0
DATA ·lanemask+56(SB)/8, $0
GLOBL ·lanemask(SB), RODATA|NOPTR, $64

// EXP_AVX2: Y0 = exp(Y0) lane-wise, exp_amd64.s's avxfma path; AX gets a
// bit per lane whose biased exponent k+0x3FF is in [1, 0x7FE], the lanes
// the straight-line path computes (NaN, ±Inf and too-large |x| convert to
// the integer indefinite 0x80000000 and fail it too). Clobbers Y1, Y2, X3,
// X4.
#define EXP_AVX2 \
	VMULPD       log2e<>(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VPADDD       expbias<>(SB), X2, X2; \
	VPXOR        X3, X3, X3; \
	VPCMPGTD     X3, X2, X3; \
	VMOVDQU      expmax<>(SB), X4; \
	VPCMPGTD     X2, X4, X4; \
	VPAND        X3, X4, X3; \
	VMOVMSKPS    X3, AX; \
	VFNMADD231PD ln2u<>(SB), Y1, Y0; \
	VFNMADD231PD ln2l<>(SB), Y1, Y0; \
	VMULPD       sixteenth<>(SB), Y0, Y0; \
	VMOVUPD      expc8<>(SB), Y1; \
	VFMADD213PD  expc7<>(SB), Y0, Y1; \
	VFMADD213PD  expc6<>(SB), Y0, Y1; \
	VFMADD213PD  expc5<>(SB), Y0, Y1; \
	VFMADD213PD  expc4<>(SB), Y0, Y1; \
	VFMADD213PD  expc3<>(SB), Y0, Y1; \
	VFMADD213PD  half<>(SB), Y0, Y1; \
	VFMADD213PD  one<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       two<>(SB), Y0, Y1; \
	VFMADD213PD  one<>(SB), Y1, Y0; \
	VPMOVZXDQ    X2, Y2; \
	VPSLLQ       $52, Y2, Y2; \
	VMULPD       Y2, Y0, Y0

// EXP_AVX512: EXP_AVX2 on eight lanes in Z0; the exponents fill a YMM.
// Clobbers Z1, Z2, Y3, Y4.
#define EXP_AVX512 \
	VMULPD       log2e<>(SB), Z0, Z1; \
	VCVTPD2DQ    Z1, Y2; \
	VCVTDQ2PD    Y2, Z1; \
	VPADDD       expbias<>(SB), Y2, Y2; \
	VPXOR        Y3, Y3, Y3; \
	VPCMPGTD     Y3, Y2, Y3; \
	VMOVDQU      expmax<>(SB), Y4; \
	VPCMPGTD     Y2, Y4, Y4; \
	VPAND        Y3, Y4, Y3; \
	VMOVMSKPS    Y3, AX; \
	VFNMADD231PD ln2u<>(SB), Z1, Z0; \
	VFNMADD231PD ln2l<>(SB), Z1, Z0; \
	VMULPD       sixteenth<>(SB), Z0, Z0; \
	VMOVUPD      expc8<>(SB), Z1; \
	VFMADD213PD  expc7<>(SB), Z0, Z1; \
	VFMADD213PD  expc6<>(SB), Z0, Z1; \
	VFMADD213PD  expc5<>(SB), Z0, Z1; \
	VFMADD213PD  expc4<>(SB), Z0, Z1; \
	VFMADD213PD  expc3<>(SB), Z0, Z1; \
	VFMADD213PD  half<>(SB), Z0, Z1; \
	VFMADD213PD  one<>(SB), Z0, Z1; \
	VMULPD       Z1, Z0, Z0; \
	VADDPD       two<>(SB), Z0, Z1; \
	VMULPD       Z1, Z0, Z0; \
	VADDPD       two<>(SB), Z0, Z1; \
	VMULPD       Z1, Z0, Z0; \
	VADDPD       two<>(SB), Z0, Z1; \
	VMULPD       Z1, Z0, Z0; \
	VADDPD       two<>(SB), Z0, Z1; \
	VFMADD213PD  one<>(SB), Z1, Z0; \
	VPMOVZXDQ    Y2, Z2; \
	VPSLLQ       $52, Z2, Z2; \
	VMULPD       Z2, Z0, Z0

// LOG_AVX2: Y1 = log(Y0) lane-wise, log_amd64.s; AX gets a bit per lane
// with 0 < x < +Inf, the lanes its straight-line path computes (x ≤ 0,
// +Inf and NaN branch there). Frexp's f1 and k, then "if f1 < √2/2" as
// log_amd64.s's CMPSD computes it — !(√2/2 < f1), true at equality — as a
// 0-or-1 that k loses and f1 doubles by. Clobbers Y0, Y2..Y6.
#define LOG_AVX2 \
	VXORPD    Y3, Y3, Y3; \
	VCMPPD    $0x1e, Y3, Y0, Y4; \
	VCMPPD    $0x11, posinf<>(SB), Y0, Y3; \
	VANDPD    Y3, Y4, Y4; \
	VMOVMSKPD Y4, AX; \
	VANDPD    mantissa<>(SB), Y0, Y2; \
	VORPD     half<>(SB), Y2, Y2; \
	VPSRLQ    $52, Y0, Y1; \
	VPOR      magic52<>(SB), Y1, Y1; \
	VSUBPD    magic52<>(SB), Y1, Y1; \
	VSUBPD    c1022<>(SB), Y1, Y1; \
	VMOVUPD   hsqrt2<>(SB), Y3; \
	VCMPPD    $5, Y2, Y3, Y3; \
	VANDPD    one<>(SB), Y3, Y3; \
	VSUBPD    Y3, Y1, Y1; \
	VADDPD    one<>(SB), Y3, Y3; \
	VMULPD    Y3, Y2, Y2; \
	VSUBPD    one<>(SB), Y2, Y2; \
	VADDPD    two<>(SB), Y2, Y0; \
	VDIVPD    Y0, Y2, Y3; \
	VMULPD    Y3, Y3, Y4; \
	VMULPD    Y4, Y4, Y5; \
	VMULPD    logl7<>(SB), Y5, Y6; \
	VADDPD    logl5<>(SB), Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    logl3<>(SB), Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    logl1<>(SB), Y6, Y6; \
	VMULPD    Y6, Y4, Y4; \
	VMULPD    logl6<>(SB), Y5, Y6; \
	VADDPD    logl4<>(SB), Y6, Y6; \
	VMULPD    Y5, Y6, Y6; \
	VADDPD    logl2<>(SB), Y6, Y6; \
	VMULPD    Y6, Y5, Y5; \
	VADDPD    Y5, Y4, Y4; \
	VMULPD    half<>(SB), Y2, Y0; \
	VMULPD    Y2, Y0, Y0; \
	VADDPD    Y0, Y4, Y4; \
	VMULPD    Y4, Y3, Y3; \
	VMULPD    ln2lo<>(SB), Y1, Y4; \
	VADDPD    Y4, Y3, Y3; \
	VSUBPD    Y3, Y0, Y0; \
	VSUBPD    Y2, Y0, Y0; \
	VMULPD    ln2hi<>(SB), Y1, Y1; \
	VSUBPD    Y0, Y1, Y1

// LOG_AVX512: LOG_AVX2 on eight lanes in Z0, compares into opmasks (K2,
// K3) and the 0-or-1 as a zero-masked load of one. Clobbers Z0, Z2..Z6.
#define LOG_AVX512 \
	VPXORQ    Z3, Z3, Z3; \
	VCMPPD    $0x1e, Z3, Z0, K2; \
	VCMPPD    $0x11, posinf<>(SB), Z0, K3; \
	KANDW     K2, K3, K2; \
	KMOVW     K2, AX; \
	VPANDQ    mantissa<>(SB), Z0, Z2; \
	VPORQ     half<>(SB), Z2, Z2; \
	VPSRLQ    $52, Z0, Z1; \
	VPORQ     magic52<>(SB), Z1, Z1; \
	VSUBPD    magic52<>(SB), Z1, Z1; \
	VSUBPD    c1022<>(SB), Z1, Z1; \
	VMOVUPD   hsqrt2<>(SB), Z3; \
	VCMPPD    $5, Z2, Z3, K2; \
	VMOVUPD.Z one<>(SB), K2, Z3; \
	VSUBPD    Z3, Z1, Z1; \
	VADDPD    one<>(SB), Z3, Z3; \
	VMULPD    Z3, Z2, Z2; \
	VSUBPD    one<>(SB), Z2, Z2; \
	VADDPD    two<>(SB), Z2, Z0; \
	VDIVPD    Z0, Z2, Z3; \
	VMULPD    Z3, Z3, Z4; \
	VMULPD    Z4, Z4, Z5; \
	VMULPD    logl7<>(SB), Z5, Z6; \
	VADDPD    logl5<>(SB), Z6, Z6; \
	VMULPD    Z5, Z6, Z6; \
	VADDPD    logl3<>(SB), Z6, Z6; \
	VMULPD    Z5, Z6, Z6; \
	VADDPD    logl1<>(SB), Z6, Z6; \
	VMULPD    Z6, Z4, Z4; \
	VMULPD    logl6<>(SB), Z5, Z6; \
	VADDPD    logl4<>(SB), Z6, Z6; \
	VMULPD    Z5, Z6, Z6; \
	VADDPD    logl2<>(SB), Z6, Z6; \
	VMULPD    Z6, Z5, Z5; \
	VADDPD    Z5, Z4, Z4; \
	VMULPD    half<>(SB), Z2, Z0; \
	VMULPD    Z2, Z0, Z0; \
	VADDPD    Z0, Z4, Z4; \
	VMULPD    Z4, Z3, Z3; \
	VMULPD    ln2lo<>(SB), Z1, Z4; \
	VADDPD    Z4, Z3, Z3; \
	VSUBPD    Z3, Z0, Z0; \
	VSUBPD    Z2, Z0, Z0; \
	VMULPD    ln2hi<>(SB), Z1, Z1; \
	VSUBPD    Z0, Z1, Z1

// GROUP_AVX2 starts an AVX2 group at element BX of CX: it leaves the loop
// for done when none remain, else sets Y9 to the mask of the group's lanes
// below CX and R11 to the same as bits. Clobbers DX, R9, R10.
#define GROUP_AVX2(done) \
	MOVQ      CX, DX; \
	SUBQ      BX, DX; \
	JLE       done; \
	MOVQ      $4, R9; \
	SUBQ      DX, R9; \
	XORQ      R10, R10; \
	CMPQ      R9, $0; \
	CMOVQLT   R10, R9; \
	LEAQ      ·lanemask(SB), R10; \
	VMOVDQU   (R10)(R9*8), Y9; \
	VMOVMSKPD Y9, R11

// GROUP_AVX512 is GROUP_AVX2 for eight lanes of R13: the mask goes to K1
// and R11, the lanes of a full group from K1's 0xFF (a shift of 1 by CL
// builds a partial one). Clobbers CX.
#define GROUP_AVX512(done, full) \
	MOVQ  R13, CX; \
	SUBQ  BX, CX; \
	JLE   done; \
	MOVL  $0xFF, R11; \
	CMPQ  CX, $8; \
	JGE   full; \
	MOVL  $1, R11; \
	SHLL  CX, R11; \
	DECL  R11; \
full: \
	KMOVW R11, K1

// func expNegAVX2(d, out *float64, n int, shift float64) int
TEXT ·expNegAVX2(SB), NOSPLIT, $0-40
	MOVQ         d+0(FP), SI
	MOVQ         out+8(FP), DI
	MOVQ         n+16(FP), CX
	VBROADCASTSD shift+24(FP), Y8
	XORQ         BX, BX

expNeg2Loop:
	GROUP_AVX2(expNeg2Done)
	VMASKMOVPD (SI)(BX*8), Y9, Y0
	VXORPD     signbit<>(SB), Y0, Y0 // -d
	VSUBPD     Y8, Y0, Y0            // -d - shift
	EXP_AVX2
	ANDL       R11, AX
	CMPL       AX, R11
	JNE        expNeg2Done
	VMASKMOVPD Y0, Y9, (DI)(BX*8)
	ADDQ       $4, BX
	JMP        expNeg2Loop

expNeg2Done:
	CMPQ    BX, CX
	CMOVQGT CX, BX
	MOVQ    BX, ret+32(FP)
	VZEROUPPER
	RET

// func expNegAVX512(d, out *float64, n int, shift float64) int
TEXT ·expNegAVX512(SB), NOSPLIT, $0-40
	MOVQ         d+0(FP), SI
	MOVQ         out+8(FP), DI
	MOVQ         n+16(FP), R13
	VBROADCASTSD shift+24(FP), Z8
	XORQ         BX, BX

expNeg8Loop:
	GROUP_AVX512(expNeg8Done, expNeg8Group)
	VMOVUPD.Z (SI)(BX*8), K1, Z0
	VPXORQ    signbit<>(SB), Z0, Z0 // -d
	VSUBPD    Z8, Z0, Z0            // -d - shift
	EXP_AVX512
	ANDL      R11, AX
	CMPL      AX, R11
	JNE       expNeg8Done
	VMOVUPD   Z0, K1, (DI)(BX*8)
	ADDQ      $8, BX
	JMP       expNeg8Loop

expNeg8Done:
	CMPQ    BX, R13
	CMOVQGT R13, BX
	MOVQ    BX, ret+32(FP)
	VZEROUPPER
	RET

// func expNegClampedAVX2(d, p, q *float64, n int, pMax float64) int
//
// p = exp(-d) lowered to pMax as `if p > pMax { p = pMax }` does: VMINPD
// with pMax first returns pMax only when pMax < p, so a NaN p stays. Then
// q = 1 - p.
TEXT ·expNegClampedAVX2(SB), NOSPLIT, $0-48
	MOVQ         d+0(FP), SI
	MOVQ         p+8(FP), DI
	MOVQ         q+16(FP), R12
	MOVQ         n+24(FP), CX
	VBROADCASTSD pMax+32(FP), Y8
	VMOVUPD      one<>(SB), Y10
	XORQ         BX, BX

clamp2Loop:
	GROUP_AVX2(clamp2Done)
	VMASKMOVPD (SI)(BX*8), Y9, Y0
	VXORPD     signbit<>(SB), Y0, Y0 // -d
	EXP_AVX2
	ANDL       R11, AX
	CMPL       AX, R11
	JNE        clamp2Done
	VMINPD     Y0, Y8, Y0            // pMax < p ? pMax : p
	VSUBPD     Y0, Y10, Y1           // 1 - p
	VMASKMOVPD Y0, Y9, (DI)(BX*8)
	VMASKMOVPD Y1, Y9, (R12)(BX*8)
	ADDQ       $4, BX
	JMP        clamp2Loop

clamp2Done:
	CMPQ    BX, CX
	CMOVQGT CX, BX
	MOVQ    BX, ret+40(FP)
	VZEROUPPER
	RET

// func expNegClampedAVX512(d, p, q *float64, n int, pMax float64) int
TEXT ·expNegClampedAVX512(SB), NOSPLIT, $0-48
	MOVQ         d+0(FP), SI
	MOVQ         p+8(FP), DI
	MOVQ         q+16(FP), R12
	MOVQ         n+24(FP), R13
	VBROADCASTSD pMax+32(FP), Z8
	VMOVUPD      one<>(SB), Z10
	XORQ         BX, BX

clamp8Loop:
	GROUP_AVX512(clamp8Done, clamp8Group)
	VMOVUPD.Z (SI)(BX*8), K1, Z0
	VPXORQ    signbit<>(SB), Z0, Z0 // -d
	EXP_AVX512
	ANDL      R11, AX
	CMPL      AX, R11
	JNE       clamp8Done
	VMINPD    Z0, Z8, Z0            // pMax < p ? pMax : p
	VSUBPD    Z0, Z10, Z1           // 1 - p
	VMOVUPD   Z0, K1, (DI)(BX*8)
	VMOVUPD   Z1, K1, (R12)(BX*8)
	ADDQ      $8, BX
	JMP       clamp8Loop

clamp8Done:
	CMPQ    BX, R13
	CMOVQGT R13, BX
	MOVQ    BX, ret+40(FP)
	VZEROUPPER
	RET

// func logAVX2(x, out *float64, n int) int
TEXT ·logAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ n+16(FP), CX
	XORQ BX, BX

log2Loop:
	GROUP_AVX2(log2Done)
	VMASKMOVPD (SI)(BX*8), Y9, Y0
	LOG_AVX2
	ANDL       R11, AX
	CMPL       AX, R11
	JNE        log2Done
	VMASKMOVPD Y1, Y9, (DI)(BX*8)
	ADDQ       $4, BX
	JMP        log2Loop

log2Done:
	CMPQ    BX, CX
	CMOVQGT CX, BX
	MOVQ    BX, ret+24(FP)
	VZEROUPPER
	RET

// func logAVX512(x, out *float64, n int) int
TEXT ·logAVX512(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ n+16(FP), R13
	XORQ BX, BX

log8Loop:
	GROUP_AVX512(log8Done, log8Group)
	VMOVUPD.Z (SI)(BX*8), K1, Z0
	LOG_AVX512
	ANDL      R11, AX
	CMPL      AX, R11
	JNE       log8Done
	VMOVUPD   Z1, K1, (DI)(BX*8)
	ADDQ      $8, BX
	JMP       log8Loop

log8Done:
	CMPQ    BX, R13
	CMOVQGT R13, BX
	MOVQ    BX, ret+24(FP)
	VZEROUPPER
	RET

// func looRatiosAVX2(p, q, out *float64, n int, prod, P float64)
//
// out = p * (prod / q) / P, the scalar statement's association.
TEXT ·looRatiosAVX2(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), SI
	MOVQ         q+8(FP), R12
	MOVQ         out+16(FP), DI
	MOVQ         n+24(FP), CX
	VBROADCASTSD prod+32(FP), Y8
	VBROADCASTSD P+40(FP), Y10
	XORQ         BX, BX

loo2Loop:
	GROUP_AVX2(loo2Done)
	VMASKMOVPD (SI)(BX*8), Y9, Y0
	VMASKMOVPD (R12)(BX*8), Y9, Y1
	VDIVPD     Y1, Y8, Y1 // loo = prod / q
	VMULPD     Y1, Y0, Y1 // p * loo
	VDIVPD     Y10, Y1, Y1 // / P
	VMASKMOVPD Y1, Y9, (DI)(BX*8)
	ADDQ       $4, BX
	JMP        loo2Loop

loo2Done:
	VZEROUPPER
	RET

// func looRatiosAVX512(p, q, out *float64, n int, prod, P float64)
TEXT ·looRatiosAVX512(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), SI
	MOVQ         q+8(FP), R12
	MOVQ         out+16(FP), DI
	MOVQ         n+24(FP), R13
	VBROADCASTSD prod+32(FP), Z8
	VBROADCASTSD P+40(FP), Z10
	XORQ         BX, BX

loo8Loop:
	GROUP_AVX512(loo8Done, loo8Group)
	VMOVUPD.Z (SI)(BX*8), K1, Z0
	VMOVUPD.Z (R12)(BX*8), K1, Z1
	VDIVPD    Z1, Z8, Z1  // loo = prod / q
	VMULPD    Z1, Z0, Z1  // p * loo
	VDIVPD    Z10, Z1, Z1 // / P
	VMOVUPD   Z1, K1, (DI)(BX*8)
	ADDQ      $8, BX
	JMP       loo8Loop

loo8Done:
	VZEROUPPER
	RET

// func negRatiosAVX2(p, q, out *float64, n int)
TEXT ·negRatiosAVX2(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ q+8(FP), R12
	MOVQ out+16(FP), DI
	MOVQ n+24(FP), CX
	XORQ BX, BX

neg2Loop:
	GROUP_AVX2(neg2Done)
	VMASKMOVPD (SI)(BX*8), Y9, Y0
	VMASKMOVPD (R12)(BX*8), Y9, Y1
	VXORPD     signbit<>(SB), Y0, Y0 // -p
	VDIVPD     Y1, Y0, Y0            // -p / q
	VMASKMOVPD Y0, Y9, (DI)(BX*8)
	ADDQ       $4, BX
	JMP        neg2Loop

neg2Done:
	VZEROUPPER
	RET

// func negRatiosAVX512(p, q, out *float64, n int)
TEXT ·negRatiosAVX512(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ q+8(FP), R12
	MOVQ out+16(FP), DI
	MOVQ n+24(FP), R13
	XORQ BX, BX

neg8Loop:
	GROUP_AVX512(neg8Done, neg8Group)
	VMOVUPD.Z (SI)(BX*8), K1, Z0
	VMOVUPD.Z (R12)(BX*8), K1, Z1
	VPXORQ    signbit<>(SB), Z0, Z0 // -p
	VDIVPD    Z1, Z0, Z0            // -p / q
	VMOVUPD   Z0, K1, (DI)(BX*8)
	ADDQ      $8, BX
	JMP       neg8Loop

neg8Done:
	VZEROUPPER
	RET
