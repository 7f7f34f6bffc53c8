//go:build !purego

// AVX2 implementations of the blocked weighted-squared-distance kernel
// loops. Every instruction sequence here transcribes the canonical scalar
// block body in kernel.go one operation at a time — the contract is
// bit-identical results, so the shape of the code is dictated by the
// scalar loops, not by what would be fastest in isolation:
//
//   - one 4-dimension block per iteration (KernelBlock), threshold check
//     after every block: d = v − u (VSUBPD), then the products as
//     (w*d)*d — two separate VMULPDs in that association; FMA would fuse
//     the multiply-add with a single rounding and change the bits, so no
//     VFMADD anywhere;
//   - the lane fold reproduces the scalar (s0,s1) strided pairing:
//     lanes (0,2) and (1,3) are summed pairwise (VEXTRACTF128+VADDPD
//     gives [l0+l2, l1+l3] = [s0, s1]), then s0+s1, then sum += that —
//     the exact adds, in the exact order, of the scalar body;
//   - the trailing dim%4 dimensions accumulate sequentially into their
//     own register (X3), added to the sum once, then one threshold
//     check — mirroring tailSqDist;
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

// func wsqResumeAVX2(v, u, w *float64, n, start int, sum, thr float64) (out float64, abandoned bool)
//
// Single-vector loop: weightedSqDistResume. Caller guarantees
// 0 <= start < n, start a multiple of KernelBlock, and n-length buffers.
TEXT ·wsqResumeAVX2(SB), NOSPLIT, $0-65
	MOVQ v+0(FP), SI
	MOVQ u+8(FP), DX
	MOVQ w+16(FP), DI
	MOVQ n+24(FP), CX
	MOVQ start+32(FP), BX
	VMOVSD sum+40(FP), X8
	VMOVSD thr+48(FP), X9
	SHLQ $3, CX  // total bytes
	SHLQ $3, BX  // cursor: start*8
	MOVQ CX, R14
	ANDQ $-32, R14 // tail start: (n &^ 3) * 8

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
	VUCOMISD X9, X8        // sum > thr? (unordered: not taken)
	JA      abandon
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
	VADDSD X3, X8, X8 // sum += s, then one check
	VUCOMISD X9, X8
	JA     abandon

done:
	VMOVSD X8, out+56(FP)
	MOVB   $0, abandoned+64(FP)
	VZEROUPPER
	RET

abandon:
	VMOVSD X8, out+56(FP)
	MOVB   $1, abandoned+64(FP)
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

// func distRowsAVX2(p, w, rows *float64, dim, nRows int, out *float64)
//
// All-rows loop: WeightedSqDistRows — per row the canonical block loop
// from offset 0 with no abandon threshold (the scalar oracle runs
// thr = +Inf, which no sum, NaN included, ever exceeds), stored to out[r].
// Caller guarantees dim >= 1 and nRows >= 1.
//
// Rows are independent, so they are taken four at a time with one lane
// of the running-sum register per row: a single row's block loop is bound
// by its own sum += chain and the in-lane fold, four interleaved rows
// share the query loads and fold together. Per block and row the adds
// are still the scalar ones: the two VPERM2F128 pair lanes (0,2) and
// (1,3) of two rows' product vectors so one VADDPD forms
// [s0, s1 | s0', s1'], VHADDPD adds s0 + s1 per row, and the last VADDPD
// is sum += (s0 + s1). Passes:
//
//   1. groups of four rows, full blocks only, sums to out[r..r+3];
//   2. the nRows%4 leftover rows, full blocks only, one at a time;
//   3. when dim%4 != 0, every row's tail: the trailing dimensions
//      accumulate sequentially into their own register, then
//      out[r] += that — tailSqDist's association (for dim < 4 the block
//      passes stored +0 and this adds 0 + s, as the scalar loop does).
TEXT ·distRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ rows+16(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ nRows+32(FP), R9
	MOVQ out+40(FP), R10
	SHLQ $3, CX    // row stride in bytes
	MOVQ CX, R14
	ANDQ $-32, R14 // tail start: (dim &^ 3) * 8
	MOVQ R9, R15   // rows left for the block passes

dist4:
	CMPQ R15, $4
	JL   dist1
	LEAQ (DX)(CX*1), R11  // row B
	LEAQ (R11)(CX*1), R12 // row C
	LEAQ (R12)(CX*1), R13 // row D
	VXORPD Y8, Y8, Y8     // sums, lanes [A, C, B, D]
	XORQ BX, BX

dist4Blocks:
	CMPQ BX, R14
	JGE  dist4Store
	VMOVUPD (SI)(BX*1), Y0      // p block
	VMOVUPD (DI)(BX*1), Y1      // w block
	VSUBPD  (DX)(BX*1), Y0, Y2  // dA = p - rowA
	VSUBPD  (R11)(BX*1), Y0, Y3 // dB
	VSUBPD  (R12)(BX*1), Y0, Y4 // dC
	VSUBPD  (R13)(BX*1), Y0, Y5 // dD
	VMULPD  Y2, Y1, Y6          // w * d
	VMULPD  Y2, Y6, Y2          // (w*d) * d
	VMULPD  Y3, Y1, Y6
	VMULPD  Y3, Y6, Y3
	VMULPD  Y4, Y1, Y6
	VMULPD  Y4, Y6, Y4
	VMULPD  Y5, Y1, Y6
	VMULPD  Y5, Y6, Y5
	VPERM2F128 $0x20, Y3, Y2, Y6 // [a0, a1, b0, b1]
	VPERM2F128 $0x31, Y3, Y2, Y7 // [a2, a3, b2, b3]
	VADDPD  Y7, Y6, Y6           // [sA0, sA1, sB0, sB1]
	VPERM2F128 $0x20, Y5, Y4, Y7 // [c0, c1, d0, d1]
	VPERM2F128 $0x31, Y5, Y4, Y9 // [c2, c3, d2, d3]
	VADDPD  Y9, Y7, Y7           // [sC0, sC1, sD0, sD1]
	VHADDPD Y7, Y6, Y6           // [sA0+sA1, sC0+sC1, sB0+sB1, sD0+sD1]
	VADDPD  Y6, Y8, Y8           // sum += s0 + s1, per row
	ADDQ    $32, BX
	JMP     dist4Blocks

dist4Store:
	VPERMPD $0xD8, Y8, Y8 // lanes [A, C, B, D] -> [A, B, C, D]
	VMOVUPD Y8, (R10)
	ADDQ $32, R10
	LEAQ (R13)(CX*1), DX // next group
	SUBQ $4, R15
	JMP  dist4

dist1:
	TESTQ R15, R15
	JZ    distTails
	VXORPD X8, X8, X8 // sum = 0
	XORQ   BX, BX

dist1Blocks:
	CMPQ BX, R14
	JGE  dist1Store
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD (DI)(BX*1), Y2
	VSUBPD  (DX)(BX*1), Y0, Y0 // d = p - row
	VMULPD  Y0, Y2, Y2         // w * d
	VMULPD  Y0, Y2, Y0         // (w*d) * d
	VEXTRACTF128 $1, Y0, X1
	VADDPD  X1, X0, X0         // [l0+l2, l1+l3] = [s0, s1]
	VUNPCKHPD X0, X0, X1
	VADDSD  X1, X0, X0         // s0 + s1
	VADDSD  X0, X8, X8         // sum += s0 + s1
	ADDQ    $32, BX
	JMP     dist1Blocks

dist1Store:
	VMOVSD X8, (R10)
	ADDQ   $8, R10
	ADDQ   CX, DX
	DECQ   R15
	JMP    dist1

distTails:
	CMPQ R14, CX
	JGE  distDone
	MOVQ rows+16(FP), DX
	MOVQ out+40(FP), R10

distTailRow:
	VXORPD X3, X3, X3 // tail accumulator s
	MOVQ   R14, BX

distTailLoop:
	VMOVSD (SI)(BX*1), X0
	VSUBSD (DX)(BX*1), X0, X0 // d = p - row
	VMOVSD (DI)(BX*1), X2
	VMULSD X0, X2, X2         // w * d
	VMULSD X0, X2, X0         // (w*d) * d
	VADDSD X0, X3, X3         // s += term
	ADDQ   $8, BX
	CMPQ   BX, CX
	JL     distTailLoop
	VMOVSD (R10), X8
	VADDSD X3, X8, X8 // sum += s
	VMOVSD X8, (R10)
	ADDQ   $8, R10
	ADDQ   CX, DX
	DECQ   R9
	JNZ    distTailRow

distDone:
	VZEROUPPER
	RET

// func gradRowsAVX2(gt, gw, t, a, b, rows, coefs *float64, dim, nRows int, st, sw float64)
//
// Gradient accumulation: gradAccumRows. Per row with a non-zero
// coefficient c (UCOMISD against zero: skip only on "equal and ordered",
// so a NaN coefficient is processed exactly as the scalar `c == 0` test
// lets it through), c2 = c*st and cw = c*sw are broadcast and every
// 4-dimension block runs the scalar statement sequence lane-wise:
//
//	d = t - x; gt += (c2*a)*d; gw += ((cw*b)*d)*d
//
// — one VSUBPD, separate VMULPDs in the scalar association, one VADDPD
// into the loaded accumulator, no FMA. There is no cross-lane operation:
// lane k sees only dimension k, and rows are visited in order, so every
// per-dimension sum is built by the scalar loop's adds in the scalar
// loop's order. The dim%4 tail repeats the block with the scalar (SD)
// forms. gw == nil selects the t-only loops (fixed weights). Caller
// guarantees dim >= 1, nRows >= 1 and non-overlapping gt/gw versus inputs.
TEXT ·gradRowsAVX2(SB), NOSPLIT, $0-88
	MOVQ gt+0(FP), R8
	MOVQ gw+8(FP), R9
	MOVQ t+16(FP), SI
	MOVQ a+24(FP), DI
	MOVQ b+32(FP), R10
	MOVQ rows+40(FP), DX
	MOVQ coefs+48(FP), R11
	MOVQ dim+56(FP), CX
	MOVQ nRows+64(FP), R12
	VMOVSD st+72(FP), X12
	VMOVSD sw+80(FP), X13
	SHLQ $3, CX    // row stride in bytes
	MOVQ CX, R14
	ANDQ $-32, R14 // tail start: (dim &^ 3) * 8
	VXORPD X11, X11, X11 // 0.0

gradRow:
	VMOVSD   (R11), X10 // c
	VUCOMISD X11, X10   // c == 0 and ordered: skip
	JNE  gradDo
	JP   gradDo
	JMP  gradNext

gradDo:
	VMULSD X12, X10, X14 // c2 = c * st
	VBROADCASTSD X14, Y14
	XORQ  BX, BX
	TESTQ R9, R9
	JZ    gradTBlocks
	VMULSD X13, X10, X15 // cw = c * sw
	VBROADCASTSD X15, Y15

gradBlocks:
	CMPQ BX, R14
	JGE  gradTail
	VMOVUPD (SI)(BX*1), Y0      // t block
	VSUBPD  (DX)(BX*1), Y0, Y0  // d = t - x
	VMULPD  (DI)(BX*1), Y14, Y2 // c2 * a
	VMULPD  Y0, Y2, Y2          // (c2*a) * d
	VMOVUPD (R8)(BX*1), Y3
	VADDPD  Y2, Y3, Y3          // gt + term
	VMOVUPD Y3, (R8)(BX*1)
	VMULPD  (R10)(BX*1), Y15, Y4 // cw * b
	VMULPD  Y0, Y4, Y4          // (cw*b) * d
	VMULPD  Y0, Y4, Y4          // ((cw*b)*d) * d
	VMOVUPD (R9)(BX*1), Y5
	VADDPD  Y4, Y5, Y5          // gw + term
	VMOVUPD Y5, (R9)(BX*1)
	ADDQ    $32, BX
	JMP     gradBlocks

gradTail:
	CMPQ BX, CX
	JGE  gradNext
	VMOVSD (SI)(BX*1), X0
	VSUBSD (DX)(BX*1), X0, X0
	VMULSD (DI)(BX*1), X14, X2
	VMULSD X0, X2, X2
	VMOVSD (R8)(BX*1), X3
	VADDSD X2, X3, X3
	VMOVSD X3, (R8)(BX*1)
	VMULSD (R10)(BX*1), X15, X4
	VMULSD X0, X4, X4
	VMULSD X0, X4, X4
	VMOVSD (R9)(BX*1), X5
	VADDSD X4, X5, X5
	VMOVSD X5, (R9)(BX*1)
	ADDQ   $8, BX
	JMP    gradTail

gradTBlocks:
	CMPQ BX, R14
	JGE  gradTTail
	VMOVUPD (SI)(BX*1), Y0
	VSUBPD  (DX)(BX*1), Y0, Y0
	VMULPD  (DI)(BX*1), Y14, Y2
	VMULPD  Y0, Y2, Y2
	VMOVUPD (R8)(BX*1), Y3
	VADDPD  Y2, Y3, Y3
	VMOVUPD Y3, (R8)(BX*1)
	ADDQ    $32, BX
	JMP     gradTBlocks

gradTTail:
	CMPQ BX, CX
	JGE  gradNext
	VMOVSD (SI)(BX*1), X0
	VSUBSD (DX)(BX*1), X0, X0
	VMULSD (DI)(BX*1), X14, X2
	VMULSD X0, X2, X2
	VMOVSD (R8)(BX*1), X3
	VADDSD X2, X3, X3
	VMOVSD X3, (R8)(BX*1)
	ADDQ   $8, BX
	JMP    gradTTail

gradNext:
	ADDQ CX, DX // next row
	ADDQ $8, R11
	DECQ R12
	JNZ  gradRow
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
