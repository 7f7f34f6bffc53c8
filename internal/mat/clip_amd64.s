//go:build !purego

// AVX2 bodies of the projection passes in clip.go. Every lane clips as the
// scalar clip does: x86 MIN(a, b) returns a only when a < b and MAX(a, b)
// only when a > b (b for NaN and for two zeros), so with the bound as the
// first source
//
//	u = MIN(hi, t) = hi < t ? hi : t   (t > hi ? hi : t)
//	c = MAX(lo, u) = lo > u ? lo : u
//
// and c is v < lo ? lo : (v > hi ? hi : v) for every t, NaN and ±0
// included: when t < lo ≤ hi, u is t itself. In Go's operand order that is
// VMINPD t, hi, u then VMAXPD u, lo, c. The exact sum adds the clipped
// lanes into one scalar register in index order (lane 0, 1, 2, 3 of each
// block, then the tail), the scalar loop's adds one for one; the running
// minimum is the scalar `v < least` as MIN(v, least). Each body finishes
// the n%4 tail one element at a time. VZEROUPPER precedes every RET.

#include "textflag.h"

// CLIP4 clips the four lanes of t in place against the broadcast bounds in
// Y14 (lo) and Y15 (hi).
#define CLIP4(t) \
	VMINPD t, Y15, t; \
	VMAXPD t, Y14, t

// CLIP1 is CLIP4 on the low lane of X register t.
#define CLIP1(t) \
	VMINSD t, X15, t; \
	VMAXSD t, X14, t

// func clipSumAVX2(x *float64, n int, shift, lo, hi float64) (sum, least float64)
TEXT ·clipSumAVX2(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD shift+16(FP), Y13
	VBROADCASTSD lo+24(FP), Y14
	VBROADCASTSD hi+32(FP), Y15
	VXORPD       X0, X0, X0 // sum = +0
	MOVQ         $0x7ff0000000000000, AX
	VMOVQ        AX, X1     // least = +Inf
	LEAQ         (SI)(CX*8), DI // end
	ANDQ         $-4, CX
	LEAQ         (SI)(CX*8), DX // block end

sumBlockLoop:
	CMPQ         SI, DX
	JGE          sumTail
	VMOVUPD      (SI), Y2        // v
	VADDPD       Y13, Y2, Y3     // t = v + shift
	CLIP4(Y3)
	VEXTRACTF128 $1, Y3, X5      // c2, c3
	VPERMILPD    $1, X3, X4      // c1
	VPERMILPD    $1, X5, X6      // c3
	VADDSD       X3, X0, X0      // sum += c0
	VADDSD       X4, X0, X0      // sum += c1
	VADDSD       X5, X0, X0      // sum += c2
	VADDSD       X6, X0, X0      // sum += c3
	VEXTRACTF128 $1, Y2, X8      // v2, v3
	VPERMILPD    $1, X2, X7      // v1
	VPERMILPD    $1, X8, X9      // v3
	VMINSD       X1, X2, X1      // least = v0 < least ? v0 : least
	VMINSD       X1, X7, X1
	VMINSD       X1, X8, X1
	VMINSD       X1, X9, X1
	ADDQ         $32, SI
	JMP          sumBlockLoop

sumTail:
	CMPQ   SI, DI
	JGE    sumDone
	VMOVSD (SI), X2
	VADDSD X13, X2, X3
	CLIP1(X3)
	VADDSD X3, X0, X0
	VMINSD X1, X2, X1
	ADDQ   $8, SI
	JMP    sumTail

sumDone:
	VMOVSD X0, sum+40(FP)
	VMOVSD X1, least+48(FP)
	VZEROUPPER
	RET

// func clipSumFreeAVX2(x *float64, n int, shift, lo, hi float64) (sum float64, free int)
//
// The order-free pass: two vector accumulators over blocks of eight, one
// block of four, then the tail into a third; the free count is the popcount
// of the lanes with lo < t and t < hi (VCMPPD predicate 1, LT_OS: false for
// NaN).
TEXT ·clipSumFreeAVX2(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD shift+16(FP), Y13
	VBROADCASTSD lo+24(FP), Y14
	VBROADCASTSD hi+32(FP), Y15
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       X2, X2, X2
	XORQ         R8, R8 // free
	LEAQ         (SI)(CX*8), DI // end
	MOVQ         CX, R9
	ANDQ         $-8, R9
	LEAQ         (SI)(R9*8), DX // end of the blocks of eight

freeLoop8:
	CMPQ      SI, DX
	JGE       free4
	VADDPD    (SI), Y13, Y3
	VADDPD    32(SI), Y13, Y4
	VCMPPD    $1, Y3, Y14, Y5  // lo < t
	VCMPPD    $1, Y15, Y3, Y6  // t < hi
	VCMPPD    $1, Y4, Y14, Y7
	VCMPPD    $1, Y15, Y4, Y8
	CLIP4(Y3)
	CLIP4(Y4)
	VADDPD    Y3, Y0, Y0
	VADDPD    Y4, Y1, Y1
	VANDPD    Y5, Y6, Y6
	VANDPD    Y7, Y8, Y8
	VMOVMSKPD Y6, AX
	VMOVMSKPD Y8, BX
	POPCNTQ   AX, AX
	POPCNTQ   BX, BX
	ADDQ      AX, R8
	ADDQ      BX, R8
	ADDQ      $64, SI
	JMP       freeLoop8

free4:
	MOVQ      CX, R9
	ANDQ      $4, R9
	JZ        freeTail
	VADDPD    (SI), Y13, Y3
	VCMPPD    $1, Y3, Y14, Y5
	VCMPPD    $1, Y15, Y3, Y6
	CLIP4(Y3)
	VADDPD    Y3, Y0, Y0
	VANDPD    Y5, Y6, Y6
	VMOVMSKPD Y6, AX
	POPCNTQ   AX, AX
	ADDQ      AX, R8
	ADDQ      $32, SI

freeTail:
	CMPQ   SI, DI
	JGE    freeDone
	VMOVSD (SI), X3
	VADDSD X13, X3, X3
	VCMPSD $1, X3, X14, X5
	VCMPSD $1, X15, X3, X6
	CLIP1(X3)
	VADDSD X3, X2, X2
	VANDPD X5, X6, X6
	VMOVQ  X6, AX
	ANDQ   $1, AX
	ADDQ   AX, R8
	ADDQ   $8, SI
	JMP    freeTail

freeDone:
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0
	VADDSD       X2, X0, X0
	VMOVSD       X0, sum+40(FP)
	MOVQ         R8, free+48(FP)
	VZEROUPPER
	RET

// func clipAVX2(x *float64, n int, lo, hi float64)
TEXT ·clipAVX2(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD lo+16(FP), Y14
	VBROADCASTSD hi+24(FP), Y15
	LEAQ         (SI)(CX*8), DI
	ANDQ         $-4, CX
	LEAQ         (SI)(CX*8), DX

clipBlockLoop:
	CMPQ    SI, DX
	JGE     clipTail
	VMOVUPD (SI), Y3
	CLIP4(Y3)
	VMOVUPD Y3, (SI)
	ADDQ    $32, SI
	JMP     clipBlockLoop

clipTail:
	CMPQ   SI, DI
	JGE    clipDone
	VMOVSD (SI), X3
	CLIP1(X3)
	VMOVSD X3, (SI)
	ADDQ   $8, SI
	JMP    clipTail

clipDone:
	VZEROUPPER
	RET

// func clipShiftAVX2(x *float64, n int, shift, lo, hi float64)
TEXT ·clipShiftAVX2(SB), NOSPLIT, $0-40
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSD shift+16(FP), Y13
	VBROADCASTSD lo+24(FP), Y14
	VBROADCASTSD hi+32(FP), Y15
	LEAQ         (SI)(CX*8), DI
	ANDQ         $-4, CX
	LEAQ         (SI)(CX*8), DX

shiftBlockLoop:
	CMPQ    SI, DX
	JGE     shiftTail
	VADDPD  (SI), Y13, Y3
	CLIP4(Y3)
	VMOVUPD Y3, (SI)
	ADDQ    $32, SI
	JMP     shiftBlockLoop

shiftTail:
	CMPQ   SI, DI
	JGE    shiftDone
	VMOVSD (SI), X3
	VADDSD X13, X3, X3
	CLIP1(X3)
	VMOVSD X3, (SI)
	ADDQ   $8, SI
	JMP    shiftTail

shiftDone:
	VZEROUPPER
	RET
