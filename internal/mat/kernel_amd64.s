//go:build !purego

// AVX2 implementations of the blocked weighted-squared-distance kernel
// loops, and the AVX2 and AVX-512 bodies of the box-tile screen
// (sketch.go). Every instruction sequence here transcribes the canonical
// scalar block body in kernel.go one operation at a time — the contract is
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
//     the exact adds, in the exact order, of the scalar body; the box
//     screen runs a bag per lane, so its fold is the same adds made
//     vertically, and its threshold check is a per-lane compare;
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

// BOX_PREFETCH_NEXT hints the first block of the next tile, 64·dim bytes
// on (CX = dim), into L1. A scan screens the tiles of a segment in order
// and most stop after a few blocks, so the reads are short runs a page
// apart (a 64-dimension tile is 4 KB), which the hardware prefetchers do
// not follow across pages. Past the array's end the hint is a harmless
// no-op: prefetches never fault. Clobbers AX.
#define BOX_PREFETCH_NEXT \
	MOVQ       CX, AX; \
	SHLQ       $6, AX; \
	ADDQ       R8, AX; \
	PREFETCHT0 (AX); \
	PREFETCHT0 64(AX); \
	PREFETCHT0 128(AX); \
	PREFETCHT0 192(AX)

// BOX2_TERM forms, for the eight lanes of one dimension of a box tile,
// boxExcess's e = max(0, lo − p, p − hi) and the product (w·e)·e: lo at
// tile offsets lo (lanes 0..3) and loB (lanes 4..7), hi at hi and hiB, p and
// w at poff past dimension BX; the products go to mA (lanes 0..3) and mB.
// x86 MAX(src1, src2) returns src2 when either is NaN, so MAX(t1, 0) then
// MAX(t2, m1) keep the scalar compares' NaN-false choices (a NaN query
// dimension contributes 0). Clobbers Y0..Y5.
#define BOX2_TERM(lo, loB, hi, hiB, poff, mA, mB) \
	VBROADCASTSD poff(SI)(BX*8), Y4; \
	VCVTPS2PD    lo(R8), Y0; \
	VCVTPS2PD    loB(R8), Y1; \
	VCVTPS2PD    hi(R8), Y2; \
	VCVTPS2PD    hiB(R8), Y3; \
	VSUBPD       Y4, Y0, Y0; \
	VSUBPD       Y4, Y1, Y1; \
	VSUBPD       Y2, Y4, Y2; \
	VSUBPD       Y3, Y4, Y3; \
	VMAXPD       Y15, Y0, Y0; \
	VMAXPD       Y15, Y1, Y1; \
	VMAXPD       Y0, Y2, Y0; \
	VMAXPD       Y1, Y3, Y1; \
	VBROADCASTSD poff(DI)(BX*8), Y5; \
	VMULPD       Y0, Y5, Y2; \
	VMULPD       Y1, Y5, Y3; \
	VMULPD       Y0, Y2, mA; \
	VMULPD       Y1, Y3, mB

// BOX2_CHECK sets, in R11, the bit of every lane whose running sum (Y8
// lanes 0..3, Y9 lanes 4..7) strictly exceeds thr (Y14): VCMPPD predicate
// 0x1E, GT_OQ, is false on an unordered compare as Go's > is. Clobbers Y0,
// Y1, AX, DX.
#define BOX2_CHECK \
	VCMPPD    $0x1E, Y14, Y8, Y0; \
	VCMPPD    $0x1E, Y14, Y9, Y1; \
	VMOVMSKPD Y0, AX; \
	VMOVMSKPD Y1, DX; \
	SHLL      $4, DX; \
	ORL       DX, AX; \
	ORL       AX, R11

// func boxTileAVX2(p, w *float64, tile *float32, dim int, thr float64, done uint8) uint8
//
// Tile box screen: BoxTileExceeds, boxBoundScalar with a bag per lane. Y8
// carries the running sums of lanes 0..3 and Y9 of lanes 4..7. Per
// 4-dimension block each half folds its terms m_k as the scalar sqBlock
// does — s0 = m0 + m2, s1 = m1 + m3, sum += s0 + s1 — with vertical adds,
// and then every lane over thr is set in R11, which starts as done; once
// R11 has all eight bits the loop stops. The dim%4 trailing dimensions
// accumulate from zero into their own registers, added to the sums once
// before the last check, as the scalar tail is. R8 walks the tile, 64
// bytes per dimension. Requires dim >= 1.
TEXT ·boxTileAVX2(SB), NOSPLIT, $0-49
	MOVQ         p+0(FP), SI
	MOVQ         w+8(FP), DI
	MOVQ         tile+16(FP), R8
	MOVQ         dim+24(FP), CX
	VBROADCASTSD thr+32(FP), Y14
	MOVBLZX      done+40(FP), R11
	VXORPD       Y15, Y15, Y15 // zero
	VXORPD       Y8, Y8, Y8    // sums, lanes 0..3
	VXORPD       Y9, Y9, Y9    // sums, lanes 4..7
	MOVQ         CX, R14
	ANDQ         $-4, R14      // dimensions in whole blocks
	XORQ         BX, BX        // dimension index
	BOX_PREFETCH_NEXT

boxTile2Blocks:
	CMPQ   BX, R14
	JGE    boxTile2Tail
	BOX2_TERM(0, 16, 32, 48, 0, Y6, Y7)        // m0
	BOX2_TERM(128, 144, 160, 176, 16, Y10, Y11) // m2
	VADDPD Y10, Y6, Y6                          // s0 = m0 + m2
	VADDPD Y11, Y7, Y7
	BOX2_TERM(64, 80, 96, 112, 8, Y10, Y11)     // m1
	BOX2_TERM(192, 208, 224, 240, 24, Y12, Y13) // m3
	VADDPD Y12, Y10, Y10                        // s1 = m1 + m3
	VADDPD Y13, Y11, Y11
	VADDPD Y10, Y6, Y6                          // s0 + s1
	VADDPD Y11, Y7, Y7
	VADDPD Y6, Y8, Y8                           // sum += s0 + s1
	VADDPD Y7, Y9, Y9
	BOX2_CHECK
	ADDQ   $256, R8
	ADDQ   $4, BX
	CMPL   R11, $0xFF
	JNE    boxTile2Blocks
	JMP    boxTile2Done

boxTile2Tail:
	CMPQ   BX, CX
	JGE    boxTile2Done
	VXORPD Y12, Y12, Y12 // tail accumulators t, lanes 0..3
	VXORPD Y13, Y13, Y13 // lanes 4..7

boxTile2TailLoop:
	BOX2_TERM(0, 16, 32, 48, 0, Y6, Y7)
	VADDPD Y6, Y12, Y12 // t += term
	VADDPD Y7, Y13, Y13
	ADDQ   $64, R8
	INCQ   BX
	CMPQ   BX, CX
	JL     boxTile2TailLoop
	VADDPD Y12, Y8, Y8  // sum += t, then one check
	VADDPD Y13, Y9, Y9
	BOX2_CHECK

boxTile2Done:
	MOVB R11, ret+48(FP)
	VZEROUPPER
	RET

// BOX5_TERM is BOX2_TERM with the eight lanes in one ZMM: lo at tile offset
// lo, hi at hi, p and w at poff past dimension BX, the products to m.
// Clobbers Z0..Z3.
#define BOX5_TERM(lo, hi, poff, m) \
	VBROADCASTSD poff(SI)(BX*8), Z2; \
	VCVTPS2PD    lo(R8), Z0; \
	VCVTPS2PD    hi(R8), Z1; \
	VSUBPD       Z2, Z0, Z0; \
	VSUBPD       Z1, Z2, Z1; \
	VMAXPD       Z15, Z0, Z0; \
	VMAXPD       Z0, Z1, Z0; \
	VBROADCASTSD poff(DI)(BX*8), Z3; \
	VMULPD       Z0, Z3, Z3; \
	VMULPD       Z0, Z3, m

// func boxTileAVX512(p, w *float64, tile *float32, dim int, thr float64, done uint8) uint8
//
// boxTileAVX2 with the eight lanes in one ZMM: Z8 carries the running sums,
// and the set lanes live in K1 — done in its low eight bits, the high eight
// always set, so KORTESTW's all-ones carry says every lane is decided.
// AVX512F only: the W forms of the mask instructions.
TEXT ·boxTileAVX512(SB), NOSPLIT, $0-49
	MOVQ         p+0(FP), SI
	MOVQ         w+8(FP), DI
	MOVQ         tile+16(FP), R8
	MOVQ         dim+24(FP), CX
	VBROADCASTSD thr+32(FP), Z14
	MOVBLZX      done+40(FP), AX
	ORL          $0xFF00, AX
	KMOVW        AX, K1
	VPXORQ       Z15, Z15, Z15 // zero
	VPXORQ       Z8, Z8, Z8    // sums
	MOVQ         CX, R14
	ANDQ         $-4, R14      // dimensions in whole blocks
	XORQ         BX, BX        // dimension index
	BOX_PREFETCH_NEXT

boxTile5Blocks:
	CMPQ     BX, R14
	JGE      boxTile5Tail
	BOX5_TERM(0, 32, 0, Z4)     // m0
	BOX5_TERM(64, 96, 8, Z5)    // m1
	BOX5_TERM(128, 160, 16, Z6) // m2
	BOX5_TERM(192, 224, 24, Z7) // m3
	VADDPD   Z6, Z4, Z4         // s0 = m0 + m2
	VADDPD   Z7, Z5, Z5         // s1 = m1 + m3
	VADDPD   Z5, Z4, Z4         // s0 + s1
	VADDPD   Z4, Z8, Z8         // sum += s0 + s1
	VCMPPD   $0x1E, Z14, Z8, K2 // sum > thr (GT_OQ: unordered is false)
	KORW     K2, K1, K1
	ADDQ     $256, R8
	ADDQ     $4, BX
	KORTESTW K1, K1
	JCC      boxTile5Blocks     // some lane still undecided
	JMP      boxTile5Done

boxTile5Tail:
	CMPQ   BX, CX
	JGE    boxTile5Done
	VPXORQ Z9, Z9, Z9 // tail accumulators t

boxTile5TailLoop:
	BOX5_TERM(0, 32, 0, Z4)
	VADDPD Z4, Z9, Z9 // t += term
	ADDQ   $64, R8
	INCQ   BX
	CMPQ   BX, CX
	JL     boxTile5TailLoop
	VADDPD Z9, Z8, Z8 // sum += t, then one check
	VCMPPD $0x1E, Z14, Z8, K2
	KORW   K2, K1, K1

boxTile5Done:
	KMOVW K1, AX
	MOVB  AX, ret+48(FP)
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
