//go:build !purego

// AVX2 implementations of the blocked weighted-squared-distance kernel
// loops. Every instruction sequence here transcribes the canonical scalar
// block body in kernel.go one operation at a time — the contract is
// bit-identical results, so the shape of the code is dictated by the
// scalar loops, not by what would be fastest in isolation:
//
//   - one 4-dimension block per iteration (KernelBlock), with a threshold
//     check after every block in the loops that abandon (the row scan and
//     the box screen): d = v − u (VSUBPD), then the products as
//     (w*d)*d — two separate VMULPDs in that association; FMA would fuse
//     the multiply-add with a single rounding and change the bits, so no
//     VFMADD anywhere;
//   - the lane fold reproduces the scalar (s0,s1) strided pairing:
//     lanes (0,2) and (1,3) are summed pairwise (VEXTRACTF128+VADDPD
//     gives [l0+l2, l1+l3] = [s0, s1]), then s0+s1, then sum += that —
//     the exact adds, in the exact order, of the scalar body;
//   - the trailing dim%4 dimensions accumulate sequentially into their
//     own register (X3), added to the sum once (then one threshold
//     check, where the loop has one) — mirroring tailSqDist;
//   - comparisons use VUCOMISD with the branch arranged so the condition
//     is an "above"-style test taken only on an ordered compare: Go's
//     `sum > thr` is false for NaN, and JA after UCOMISD is likewise not
//     taken on unordered, so NaN inputs abandon/update exactly as the
//     scalar code does. `a < b` sites are flipped to `b > a` form for
//     the same reason.
//
// Only VEX-encoded instructions are used (including the scalar tail ops
// and register moves) so the ymm pipeline never mixes with legacy SSE
// encodings, and VZEROUPPER precedes every RET to keep subsequent SSE
// code (the rest of the Go program) off the state-transition penalty.

#include "textflag.h"

// func wsqAVX2(v, u, w *float64, n int) float64
//
// Single-vector loop: weightedSqDistScalar, no threshold. Caller
// guarantees n >= 1 and n-length buffers.
TEXT ·wsqAVX2(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), SI
	MOVQ u+8(FP), DX
	MOVQ w+16(FP), DI
	MOVQ n+24(FP), CX
	VXORPD X8, X8, X8 // sum = 0
	XORQ BX, BX       // cursor
	SHLQ $3, CX       // total bytes
	MOVQ CX, R14
	ANDQ $-32, R14    // tail start: (n &^ 3) * 8

blockLoop:
	CMPQ BX, R14
	JGE  tailStart
	VMOVUPD (SI)(BX*1), Y0 // v block
	VMOVUPD (DX)(BX*1), Y1 // u block
	VMOVUPD (DI)(BX*1), Y2 // w block
	VSUBPD  Y1, Y0, Y0     // d = v - u
	VMULPD  Y0, Y2, Y2     // w * d
	VMULPD  Y0, Y2, Y0     // (w*d) * d
	VEXTRACTF128 $1, Y0, X1
	VADDPD  X1, X0, X0     // [l0+l2, l1+l3] = [s0, s1]
	VUNPCKHPD X0, X0, X1   // [s1, s1]
	VADDSD  X1, X0, X0     // s0 + s1
	VADDSD  X0, X8, X8     // sum += s0 + s1
	ADDQ    $32, BX
	JMP     blockLoop

tailStart:
	CMPQ BX, CX
	JGE  done
	VXORPD X3, X3, X3 // tail accumulator s

tailLoop:
	VMOVSD (SI)(BX*1), X0
	VMOVSD (DX)(BX*1), X1
	VMOVSD (DI)(BX*1), X2
	VSUBSD X1, X0, X0 // d = v - u
	VMULSD X0, X2, X2 // w * d
	VMULSD X0, X2, X0 // (w*d) * d
	VADDSD X0, X3, X3 // s += term
	ADDQ   $8, BX
	CMPQ   BX, CX
	JL     tailLoop
	VADDSD X3, X8, X8 // sum += s

done:
	VMOVSD X8, ret+32(FP)
	VZEROUPPER
	RET

// func minRowsAVX2(p, w, rows *float64, dim, nRows int, cutoff float64, prune bool) float64
//
// Whole-rows loop: MinWeightedSqDistRows. Caller guarantees dim >= 1 and
// nRows >= 1. The query's first two blocks (p/w dims 0..7) are hoisted
// into Y12..Y15 across the row loop: most rows abandon at the very first
// threshold check, so the dominant cost of a row is its first block, and
// keeping the query resident halves its loads.
TEXT ·minRowsAVX2(SB), NOSPLIT, $0-64
	MOVQ p+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ rows+16(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ nRows+32(FP), R9
	VMOVSD  cutoff+40(FP), X10
	MOVBLZX prune+48(FP), R13
	SHLQ $3, CX    // row stride / total bytes
	MOVQ CX, R14
	ANDQ $-32, R14 // tail start offset
	LEAQ (CX)(CX*8), R15 // prefetch distance: 9 rows ahead
	MOVQ $0x7FF0000000000000, AX
	MOVQ AX, X11   // best = +Inf
	MOVQ AX, X7    // keep +Inf handy for thr
	CMPQ R14, $0
	JE   rowLoop   // dim < 4: no full blocks to hoist
	VMOVUPD (SI), Y12 // p[0:4]
	VMOVUPD (DI), Y13 // w[0:4]
	CMPQ R14, $64
	JL   rowLoop
	VMOVUPD 32(SI), Y14 // p[4:8]
	VMOVUPD 32(DI), Y15 // w[4:8]

rowLoop:
	// Pull the next rows' leading cache line while this row computes: the
	// dominant scan profile abandons almost every row at its first block,
	// which reads only the first 32 bytes of each stride-dim*8 row — a
	// pattern whose effective latency is DRAM, not the kernel. A prefetch
	// is a hint (never faults), so reaching past the rows block is safe
	// and the results are untouched.
	PREFETCHT0 (DX)(R15*1)
	// thr = prune ? min(best, cutoff) : +Inf — scalar form:
	// thr := best; if cutoff < thr { thr = cutoff }, NaN-exact.
	TESTL R13, R13
	JZ    thrInf
	VMOVAPD X11, X9
	VUCOMISD X10, X9 // thr > cutoff? (unordered: keep best)
	JBE   thrDone
	VMOVAPD X10, X9
	JMP   thrDone

thrInf:
	VMOVAPD X7, X9

thrDone:
	VXORPD X8, X8, X8 // sum = 0
	XORQ   BX, BX
	CMPQ   R14, $0
	JE     rowTail

	// block 0, query from Y12/Y13
	VMOVUPD (DX), Y1
	VSUBPD  Y1, Y12, Y0
	VMULPD  Y0, Y13, Y2
	VMULPD  Y0, Y2, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD  X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD  X1, X0, X0
	VADDSD  X0, X8, X8
	MOVQ    $32, BX
	VUCOMISD X9, X8
	JA      rowNext
	CMPQ    R14, $64
	JL      rowBlocks

	// block 1, query from Y14/Y15
	VMOVUPD 32(DX), Y1
	VSUBPD  Y1, Y14, Y0
	VMULPD  Y0, Y15, Y2
	VMULPD  Y0, Y2, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD  X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD  X1, X0, X0
	VADDSD  X0, X8, X8
	MOVQ    $64, BX
	VUCOMISD X9, X8
	JA      rowNext

rowBlocks:
	CMPQ BX, R14
	JGE  rowTail
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (DX)(BX*1), Y1
	VMOVUPD (DI)(BX*1), Y2
	VSUBPD  Y1, Y0, Y0
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y2, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD  X1, X0, X0
	VUNPCKHPD X0, X0, X1
	VADDSD  X1, X0, X0
	VADDSD  X0, X8, X8
	ADDQ    $32, BX
	VUCOMISD X9, X8
	JA      rowNext
	JMP     rowBlocks

rowTail:
	CMPQ BX, CX
	JGE  rowUpdate
	VXORPD X3, X3, X3

rowTailLoop:
	VMOVSD (SI)(BX*1), X0
	VMOVSD (DX)(BX*1), X1
	VMOVSD (DI)(BX*1), X2
	VSUBSD X1, X0, X0
	VMULSD X0, X2, X2
	VMULSD X0, X2, X0
	VADDSD X0, X3, X3
	ADDQ   $8, BX
	CMPQ   BX, CX
	JL     rowTailLoop
	VADDSD X3, X8, X8
	VUCOMISD X9, X8
	JA     rowNext

rowUpdate:
	VUCOMISD X8, X11 // best > sum? (i.e. sum < best; unordered: keep)
	JBE  rowNext
	VMOVAPD X8, X11

rowNext:
	ADDQ CX, DX // next row
	DECQ R9
	JNZ  rowLoop
	VMOVSD X11, ret+56(FP)
	VZEROUPPER
	RET

// func boxBoundExceedsAVX2(p, w *float64, box *float32, dim int, thr float64) bool
//
// Box lower-bound screen: BoxBoundExceeds. Per 4-dimension block the
// interleaved float32 lo/hi pairs are deinterleaved with two VSHUFPS,
// widened to float64, and the per-dimension excess e = max(0, lo−p, p−hi)
// is built from two VMAXPDs arranged so an unordered compare keeps the
// accumulated value — x86 MAX*(src1, src2) returns src2 when either input
// is NaN, so max(src1=t1, src2=0) then max(src1=t2, src2=m1) reproduces
// the scalar boxExcess's NaN-false compares exactly (a NaN query dimension
// contributes 0). The weighted fold, (s0,s1) pairing, per-block threshold
// check and the tail's separate accumulator all mirror the scalar oracle
// in sketch.go, so the decision and every partial sum are bit-identical.
// Requires dim >= 1; box holds BoxStride*dim float32s.
TEXT ·boxBoundExceedsAVX2(SB), NOSPLIT, $0-41
	MOVQ p+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ box+16(FP), R8
	MOVQ dim+24(FP), CX
	VMOVSD thr+32(FP), X9
	VXORPD Y10, Y10, Y10 // zero, packed and scalar
	VXORPD X8, X8, X8    // sum = 0
	SHLQ $3, CX          // p/w bytes; box bytes coincide (2×float32 per dim)
	MOVQ CX, R14
	ANDQ $-32, R14       // tail start: (dim &^ 3) * 8
	XORQ BX, BX

	// The screen walks a packed array of boxes, one call per bag, and most
	// bags abandon within the first blocks — so the demand-read pattern is
	// short touches at a CX-byte stride, which the hardware stride
	// prefetchers track poorly. Hint the next bag's first lines (the call
	// for bag i covers bag i+1); past the array's end this is a harmless
	// no-op, prefetches never fault.
	PREFETCHT0 (R8)(CX*1)
	PREFETCHT0 64(R8)(CX*1)

boxBlockLoop:
	CMPQ BX, R14
	JGE  boxTailStart
	VMOVUPS (R8)(BX*1), X1    // lo0 hi0 lo1 hi1
	VMOVUPS 16(R8)(BX*1), X2  // lo2 hi2 lo3 hi3
	VSHUFPS $0x88, X2, X1, X3 // lo0 lo1 lo2 lo3
	VSHUFPS $0xDD, X2, X1, X4 // hi0 hi1 hi2 hi3
	// hi first: writing Y4 clobbers X4 (its low half), so the lo convert
	// must come after the hi lanes are consumed.
	VCVTPS2PD X4, Y5          // hi widened
	VCVTPS2PD X3, Y4          // lo widened
	VMOVUPD (SI)(BX*1), Y6    // p block
	VSUBPD  Y6, Y4, Y0        // t1 = lo - p
	VSUBPD  Y5, Y6, Y1        // t2 = p - hi
	VMAXPD  Y10, Y0, Y0       // m1 = t1 > 0 ? t1 : 0 (NaN -> 0)
	VMAXPD  Y0, Y1, Y0        // e = t2 > m1 ? t2 : m1 (NaN -> m1)
	VMOVUPD (DI)(BX*1), Y2    // w block
	VMULPD  Y0, Y2, Y2        // w * e
	VMULPD  Y0, Y2, Y0        // (w*e) * e
	VEXTRACTF128 $1, Y0, X1
	VADDPD  X1, X0, X0        // [l0+l2, l1+l3] = [s0, s1]
	VUNPCKHPD X0, X0, X1
	VADDSD  X1, X0, X0        // s0 + s1
	VADDSD  X0, X8, X8        // sum += s0 + s1
	ADDQ    $32, BX
	VUCOMISD X9, X8           // sum > thr? (unordered: not taken)
	JA      boxExceeds
	JMP     boxBlockLoop

boxTailStart:
	CMPQ BX, CX
	JGE  boxDone
	VXORPD X3, X3, X3 // tail accumulator t

boxTailLoop:
	VMOVSS (R8)(BX*1), X0
	VCVTSS2SD X0, X0, X0  // lo widened
	VMOVSS 4(R8)(BX*1), X1
	VCVTSS2SD X1, X1, X1  // hi widened
	VMOVSD (SI)(BX*1), X6 // p
	VSUBSD X6, X0, X0     // t1 = lo - p
	VSUBSD X1, X6, X1     // t2 = p - hi
	VMAXSD X10, X0, X0    // m1 = t1 > 0 ? t1 : 0 (NaN -> 0)
	VMAXSD X0, X1, X0     // e = t2 > m1 ? t2 : m1 (NaN -> m1)
	VMOVSD (DI)(BX*1), X2 // w
	VMULSD X0, X2, X2     // w * e
	VMULSD X0, X2, X0     // (w*e) * e
	VADDSD X0, X3, X3     // t += term
	ADDQ   $8, BX
	CMPQ   BX, CX
	JL     boxTailLoop
	VADDSD X3, X8, X8 // sum += t, then one check

boxDone:
	VUCOMISD X9, X8
	JA   boxExceeds
	MOVB $0, ret+40(FP)
	VZEROUPPER
	RET

boxExceeds:
	MOVB $1, ret+40(FP)
	VZEROUPPER
	RET

// func sketchRowsAVX2(rows *float64, stride, nRows, nCols int, lo, hi, sum *float64)
//
// PackBagSketch's pass: row by row in memory order, each 4-dimension block
// of the row folds into the running lo, hi and sum arrays (L1-resident
// scratch, one slot per dimension), then the dim%4 tail one dimension at a
// time. Per lane this is the scalar loop's body in its order: x86
// MIN/MAX(src1, src2) returns src1 only when src1 < src2 (resp. >), so with
// the row value v as src1, VMINPD gives v < lo ? v : lo and VMAXPD gives
// v > hi ? v : hi — the same choice for ±0 and NaN as the scalar compares —
// and sum + v is the scalar sum += v. Requires nRows >= 1 and nCols >= 1.
TEXT ·sketchRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ rows+0(FP), SI
	MOVQ stride+8(FP), DX
	MOVQ nRows+16(FP), R9
	MOVQ nCols+24(FP), CX
	MOVQ lo+32(FP), R10
	MOVQ hi+40(FP), R11
	MOVQ sum+48(FP), R12
	SHLQ $3, DX    // row stride in bytes
	SHLQ $3, CX    // columns in bytes
	MOVQ CX, R14
	ANDQ $-32, R14 // tail start: (nCols &^ 3) * 8

sketchRowLoop:
	XORQ BX, BX

sketchBlockLoop:
	CMPQ BX, R14
	JGE  sketchTailLoop
	VMOVUPD (SI)(BX*1), Y0     // v
	VMOVUPD (R10)(BX*1), Y1
	VMINPD  Y1, Y0, Y1         // lo = v < lo ? v : lo
	VMOVUPD Y1, (R10)(BX*1)
	VMOVUPD (R11)(BX*1), Y2
	VMAXPD  Y2, Y0, Y2         // hi = v > hi ? v : hi
	VMOVUPD Y2, (R11)(BX*1)
	VADDPD  (R12)(BX*1), Y0, Y3 // sum += v
	VMOVUPD Y3, (R12)(BX*1)
	ADDQ    $32, BX
	JMP     sketchBlockLoop

sketchTailLoop:
	CMPQ BX, CX
	JGE  sketchNextRow
	VMOVSD (SI)(BX*1), X0
	VMOVSD (R10)(BX*1), X1
	VMINSD X1, X0, X1
	VMOVSD X1, (R10)(BX*1)
	VMOVSD (R11)(BX*1), X2
	VMAXSD X2, X0, X2
	VMOVSD X2, (R11)(BX*1)
	VMOVSD (R12)(BX*1), X3
	VADDSD X0, X3, X3
	VMOVSD X3, (R12)(BX*1)
	ADDQ   $8, BX
	JMP    sketchTailLoop

sketchNextRow:
	ADDQ DX, SI
	DECQ R9
	JNZ  sketchRowLoop
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
