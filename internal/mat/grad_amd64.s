//go:build !purego

// AVX2 and AVX-512 bodies of the training kernels in grad.go. As in
// kernel_amd64.s every sequence transcribes its scalar oracle one operation
// at a time — separate multiplies and adds in the scalar association, no
// VFMADD anywhere — and neither kernel has a cross-lane step, so the two
// widths run the same arithmetic on four or eight lanes and differ in
// nothing a result can see. The order in which lanes are visited is free
// for the same reason: the gradient bodies run the oracle's loops the other
// way round and the AVX-512 distance body scores tiles in pairs (grad.go's
// file comment). The AVX-512 bodies use AVX512F instructions only (VPXORQ,
// not the DQ form of VXORPD, to clear a ZMM). VZEROUPPER precedes every
// RET.

#include "textflag.h"

// func distTilesAVX2(p, w, tiles *float64, dim, nTiles int, out *float64)
//
// Tiled all-rows distance: weightedSqDistTiles. A tile is eight rows,
// dimension-major, so the eight values of one dimension are two YMM loads
// with a row per lane: Y6 carries the running sums of rows 0..3, Y7 of rows
// 4..7. Per 4-dimension block the query's p and w are broadcast once
// (Y8..Y11, Y12..Y15) and each half runs the canonical block body lane-wise:
//
//	d_k = p_k − x_k; m_k = (w_k·d_k)·d_k; s0 = m0 + m2; s1 = m1 + m3;
//	sum += s0 + s1
//
// — the strided (s0, s1) pairing of the scalar kernel with vertical adds
// where the row-major kernels need a lane fold. The dim%4 trailing
// dimensions accumulate sequentially from zero into their own registers and
// are added to the sums once, as tailSqDist's result is. DX walks the tiles
// front to back: a tile's dimensions are contiguous and the next tile
// follows the last. Caller guarantees dim >= 1 and nTiles >= 1.
TEXT ·distTilesAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ tiles+16(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ nTiles+32(FP), R9
	MOVQ out+40(FP), R10
	MOVQ CX, R14
	ANDQ $-4, R14 // dimensions in whole blocks

tile2:
	VXORPD Y6, Y6, Y6 // sums, rows 0..3
	VXORPD Y7, Y7, Y7 // sums, rows 4..7
	XORQ   BX, BX     // dimension index

tile2Blocks:
	CMPQ BX, R14
	JGE  tile2Tail
	VBROADCASTSD (SI)(BX*8), Y8
	VBROADCASTSD 8(SI)(BX*8), Y9
	VBROADCASTSD 16(SI)(BX*8), Y10
	VBROADCASTSD 24(SI)(BX*8), Y11
	VBROADCASTSD (DI)(BX*8), Y12
	VBROADCASTSD 8(DI)(BX*8), Y13
	VBROADCASTSD 16(DI)(BX*8), Y14
	VBROADCASTSD 24(DI)(BX*8), Y15
	// rows 0..3
	VSUBPD (DX), Y8, Y0     // d0 = p0 - x0
	VSUBPD 64(DX), Y9, Y1   // d1
	VSUBPD 128(DX), Y10, Y2 // d2
	VSUBPD 192(DX), Y11, Y3 // d3
	VMULPD Y0, Y12, Y4      // w0 * d0
	VMULPD Y0, Y4, Y0       // (w0*d0) * d0
	VMULPD Y1, Y13, Y5
	VMULPD Y1, Y5, Y1
	VMULPD Y2, Y14, Y4
	VMULPD Y2, Y4, Y2
	VMULPD Y3, Y15, Y5
	VMULPD Y3, Y5, Y3
	VADDPD Y2, Y0, Y0       // s0 = m0 + m2
	VADDPD Y3, Y1, Y1       // s1 = m1 + m3
	VADDPD Y1, Y0, Y0       // s0 + s1
	VADDPD Y0, Y6, Y6       // sum += s0 + s1
	// rows 4..7
	VSUBPD 32(DX), Y8, Y0
	VSUBPD 96(DX), Y9, Y1
	VSUBPD 160(DX), Y10, Y2
	VSUBPD 224(DX), Y11, Y3
	VMULPD Y0, Y12, Y4
	VMULPD Y0, Y4, Y0
	VMULPD Y1, Y13, Y5
	VMULPD Y1, Y5, Y1
	VMULPD Y2, Y14, Y4
	VMULPD Y2, Y4, Y2
	VMULPD Y3, Y15, Y5
	VMULPD Y3, Y5, Y3
	VADDPD Y2, Y0, Y0
	VADDPD Y3, Y1, Y1
	VADDPD Y1, Y0, Y0
	VADDPD Y0, Y7, Y7
	ADDQ   $256, DX
	ADDQ   $4, BX
	JMP    tile2Blocks

tile2Tail:
	CMPQ BX, CX
	JGE  tile2Store
	VXORPD Y2, Y2, Y2 // tail accumulators s, rows 0..3
	VXORPD Y3, Y3, Y3 // rows 4..7

tile2TailLoop:
	VBROADCASTSD (SI)(BX*8), Y8
	VBROADCASTSD (DI)(BX*8), Y12
	VSUBPD (DX), Y8, Y0   // d = p - x
	VSUBPD 32(DX), Y8, Y1
	VMULPD Y0, Y12, Y4    // w * d
	VMULPD Y0, Y4, Y0     // (w*d) * d
	VMULPD Y1, Y12, Y5
	VMULPD Y1, Y5, Y1
	VADDPD Y0, Y2, Y2     // s += term
	VADDPD Y1, Y3, Y3
	ADDQ   $64, DX
	INCQ   BX
	CMPQ   BX, CX
	JL     tile2TailLoop
	VADDPD Y2, Y6, Y6     // sum += s
	VADDPD Y3, Y7, Y7

tile2Store:
	VMOVUPD Y6, (R10)
	VMOVUPD Y7, 32(R10)
	ADDQ $64, R10
	DECQ R9
	JNZ  tile2
	VZEROUPPER
	RET

// DIST5_BCAST broadcasts the p and w values of the 4-dimension block at
// dimension BX: p into Z8..Z11, w into Z12..Z15.
#define DIST5_BCAST \
	VBROADCASTSD (SI)(BX*8), Z8; \
	VBROADCASTSD 8(SI)(BX*8), Z9; \
	VBROADCASTSD 16(SI)(BX*8), Z10; \
	VBROADCASTSD 24(SI)(BX*8), Z11; \
	VBROADCASTSD (DI)(BX*8), Z12; \
	VBROADCASTSD 8(DI)(BX*8), Z13; \
	VBROADCASTSD 16(DI)(BX*8), Z14; \
	VBROADCASTSD 24(DI)(BX*8), Z15

// DIST5_BLOCK runs distTilesAVX2's block body on the eight rows of the
// tile block at x against the broadcasts of DIST5_BCAST:
// d_k = p_k − x_k; m_k = (d_k·w_k)·d_k; sum += (m0 + m2) + (m1 + m3).
// Clobbers Z0..Z5, Z16, Z17.
#define DIST5_BLOCK(x, sum) \
	VSUBPD (x), Z8, Z0; \
	VSUBPD 64(x), Z9, Z1; \
	VSUBPD 128(x), Z10, Z2; \
	VSUBPD 192(x), Z11, Z3; \
	VMULPD Z12, Z0, Z4; \
	VMULPD Z13, Z1, Z5; \
	VMULPD Z14, Z2, Z16; \
	VMULPD Z15, Z3, Z17; \
	VMULPD Z0, Z4, Z0; \
	VMULPD Z1, Z5, Z1; \
	VMULPD Z2, Z16, Z2; \
	VMULPD Z3, Z17, Z3; \
	VADDPD Z2, Z0, Z0; \
	VADDPD Z3, Z1, Z1; \
	VADDPD Z1, Z0, Z0; \
	VADDPD Z0, sum, sum

// DIST5_TAIL adds the term of the one trailing dimension at x — p
// broadcast in Z8, w in Z12 — to the tail accumulator s. Clobbers Z0, Z4.
#define DIST5_TAIL(x, s) \
	VSUBPD (x), Z8, Z0; \
	VMULPD Z12, Z0, Z4; \
	VMULPD Z0, Z4, Z0; \
	VADDPD Z0, s, s

// func distTilesAVX512(p, w, tiles *float64, dim, nTiles int, out *float64)
//
// distTilesAVX2 with the eight rows of a tile in one ZMM, scored two tiles
// per pass: Z6 carries the running sums of the tile at DX, Z7 those of the
// next one at R12, and each block's p and w broadcasts serve both. Pairing
// changes which instructions share a broadcast, not what a lane computes —
// a lane still sees only its own row, through the same statements with
// their operands in the same order (the product is d·w, d first), so every
// lane keeps its bits, NaN payloads included. An odd last tile runs the
// same statements alone.
TEXT ·distTilesAVX512(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ tiles+16(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ nTiles+32(FP), R9
	MOVQ out+40(FP), R10
	MOVQ CX, R14
	ANDQ $-4, R14 // dimensions in whole blocks
	MOVQ CX, R13
	SHLQ $6, R13  // bytes per tile
	SHRQ $1, R9   // pairs of tiles
	JZ   tile5Odd

tile5Pair:
	LEAQ   (DX)(R13*1), R12
	VPXORQ Z6, Z6, Z6 // sums, tile DX
	VPXORQ Z7, Z7, Z7 // sums, tile R12
	XORQ   BX, BX     // dimension index

tile5PairBlocks:
	CMPQ BX, R14
	JGE  tile5PairTail
	DIST5_BCAST
	DIST5_BLOCK(DX, Z6)
	DIST5_BLOCK(R12, Z7)
	ADDQ $256, DX
	ADDQ $256, R12
	ADDQ $4, BX
	JMP  tile5PairBlocks

tile5PairTail:
	CMPQ   BX, CX
	JGE    tile5PairStore
	VPXORQ Z18, Z18, Z18 // tail accumulators s
	VPXORQ Z19, Z19, Z19

tile5PairTailLoop:
	VBROADCASTSD (SI)(BX*8), Z8
	VBROADCASTSD (DI)(BX*8), Z12
	DIST5_TAIL(DX, Z18)
	DIST5_TAIL(R12, Z19)
	ADDQ   $64, DX
	ADDQ   $64, R12
	INCQ   BX
	CMPQ   BX, CX
	JL     tile5PairTailLoop
	VADDPD Z18, Z6, Z6 // sum += s
	VADDPD Z19, Z7, Z7

tile5PairStore:
	VMOVUPD Z6, (R10)
	VMOVUPD Z7, 64(R10)
	ADDQ    $128, R10
	MOVQ    R12, DX // past the pair
	DECQ    R9
	JNZ     tile5Pair

tile5Odd:
	MOVQ nTiles+32(FP), R9
	ANDQ $1, R9
	JZ   tile5Done
	VPXORQ Z6, Z6, Z6
	XORQ   BX, BX

tile5Blocks:
	CMPQ BX, R14
	JGE  tile5Tail
	DIST5_BCAST
	DIST5_BLOCK(DX, Z6)
	ADDQ $256, DX
	ADDQ $4, BX
	JMP  tile5Blocks

tile5Tail:
	CMPQ   BX, CX
	JGE    tile5Store
	VPXORQ Z18, Z18, Z18

tile5TailLoop:
	VBROADCASTSD (SI)(BX*8), Z8
	VBROADCASTSD (DI)(BX*8), Z12
	DIST5_TAIL(DX, Z18)
	ADDQ   $64, DX
	INCQ   BX
	CMPQ   BX, CX
	JL     tile5TailLoop
	VADDPD Z18, Z6, Z6

tile5Store:
	VMOVUPD Z6, (R10)

tile5Done:
	VZEROUPPER
	RET

// The pieces both gradient bodies' passes share. A pass runs every row, R13
// walking the rows at stride CX from the pass's first dimension and R14 the
// coefficients from R11 to their end R12.
#define GRAD_START \
	MOVQ DX, R13; \
	MOVQ R11, R14

#define GRAD_NEXT(row) \
	ADDQ CX, R13; \
	ADDQ $8, R14; \
	CMPQ R14, R12; \
	JNE  row

// GRAD_ADVANCE moves every per-dimension pointer n bytes on, to the next
// pass's first dimension; BX counts the row's bytes still to visit. (gw and
// b move on when nil, too; their form never reads them.)
#define GRAD_ADVANCE(n) \
	ADDQ $n, SI; \
	ADDQ $n, DI; \
	ADDQ $n, R10; \
	ADDQ $n, R8; \
	ADDQ $n, R9; \
	ADDQ $n, DX; \
	SUBQ $n, BX

// GRAD2_ROW loads the row's coefficient c into X15 and goes to next when c
// is zero and ordered — the scalar `c == 0` skip; a NaN is processed —
// else on through do, where Y10 = c2 = c·st broadcast (AX points at st).
#define GRAD2_ROW(do, next) \
	VMOVSD       (R14), X15; \
	VXORPD       X14, X14, X14; \
	VUCOMISD     X14, X15; \
	JNE          do; \
	JNP          next; \
do: \
	VMULSD       (AX), X15, X10; \
	VBROADCASTSD X10, Y10

// GRAD2_CW sets Y11 = cw = c·sw broadcast.
#define GRAD2_CW \
	VMULSD       8(AX), X15, X11; \
	VBROADCASTSD X11, Y11

// GRAD2_T, GRAD2_D and GRAD2_S are gradAccumRows' per-dimension statements
// on the four lanes of one block — t-only, direct-weight and squared form:
// d = t − x; gt += (c2·a)·d; gw += (cw·d)·d or gw += ((cw·b)·d)·d. t, x, a
// and b are the block's operands (memory or register), gt and gw its
// accumulators. Clobbers Y12..Y14.
#define GRAD2_T(t, x, a, gt) \
	VMOVUPD t, Y12; \
	VSUBPD  x, Y12, Y12; \
	VMULPD  a, Y10, Y13; \
	VMULPD  Y12, Y13, Y13; \
	VADDPD  Y13, gt, gt

#define GRAD2_D(t, x, a, gt, gw) \
	VMOVUPD t, Y12; \
	VSUBPD  x, Y12, Y12; \
	VMULPD  a, Y10, Y13; \
	VMULPD  Y12, Y13, Y13; \
	VADDPD  Y13, gt, gt; \
	VMULPD  Y12, Y11, Y14; \
	VMULPD  Y12, Y14, Y14; \
	VADDPD  Y14, gw, gw

#define GRAD2_S(t, x, a, b, gt, gw) \
	VMOVUPD t, Y12; \
	VSUBPD  x, Y12, Y12; \
	VMULPD  a, Y10, Y13; \
	VMULPD  Y12, Y13, Y13; \
	VADDPD  Y13, gt, gt; \
	VMULPD  b, Y11, Y14; \
	VMULPD  Y12, Y14, Y14; \
	VMULPD  Y12, Y14, Y14; \
	VADDPD  Y14, gw, gw

// LOAD5 and STORE5 move five consecutive 4-dimension blocks at p to or
// from registers.
#define LOAD5(p, r0, r1, r2, r3, r4) \
	VMOVUPD (p), r0; \
	VMOVUPD 32(p), r1; \
	VMOVUPD 64(p), r2; \
	VMOVUPD 96(p), r3; \
	VMOVUPD 128(p), r4

#define STORE5(p, r0, r1, r2, r3, r4) \
	VMOVUPD r0, (p); \
	VMOVUPD r1, 32(p); \
	VMOVUPD r2, 64(p); \
	VMOVUPD r3, 96(p); \
	VMOVUPD r4, 128(p)

// GRAD2_MASK starts a single-block pass: to done when no dimension is
// left, else Y7 = the VMASKMOVPD mask of the block's live lanes, all four
// for a whole block. Clobbers R13, R14.
#define GRAD2_MASK(done) \
	CMPQ    BX, $0; \
	JLE     done; \
	MOVQ    BX, R13; \
	SHRQ    $3, R13; \
	MOVQ    $4, R14; \
	SUBQ    R13, R14; \
	XORQ    R13, R13; \
	CMPQ    R14, $0; \
	CMOVQLT R13, R14; \
	LEAQ    ·lanemask(SB), R13; \
	VMOVDQU (R13)(R14*8), Y7

// func gradRowsAVX2(gt, gw, t, a, b, rows, coefs *float64, dim, nRows int, st, sw float64)
//
// Gradient accumulation: gradAccumRows, four dimensions to a lane group
// and the loops turned round — dimensions outer, rows inner. A pass over a
// group of five 4-dimension blocks holds the group's gt and gw
// accumulators in Y0..Y4 and Y5..Y9, runs every row through them and
// stores them once, so no row waits on a store the row before it made. Per
// row with a non-zero coefficient c, c2 = c·st and cw = c·sw are broadcast
// and each block runs the scalar statement sequence lane-wise:
//
//	d = t - x; gt += (c2*a)*d; gw += ((cw*b)*d)*d
//
// — one VSUBPD, separate VMULPDs in the scalar association, one VADDPD
// into the accumulator, no FMA. The order changes no bit: lane k sees only
// dimension k and adds its terms in row order, each built by the scalar
// loop's operations; only which dimensions a row visits between two rows'
// terms has changed, and no lane reads another. The dimensions past the
// last whole group run one block per pass under a VMASKMOVPD mask — all
// lanes for a whole block, the first dim%4 for the tail — whose loads read
// nothing past the row and zero the other lanes, and whose stores write
// back only the live ones. gw == nil selects the t-only passes (fixed
// weights); b == nil with gw set the direct-weight ones, gw += (cw*d)*d
// with no factor b. Caller guarantees dim >= 1, nRows >= 1 and
// non-overlapping gt/gw versus inputs.
TEXT ·gradRowsAVX2(SB), NOSPLIT, $0-88
	MOVQ  gt+0(FP), R8
	MOVQ  gw+8(FP), R9
	MOVQ  t+16(FP), SI
	MOVQ  a+24(FP), DI
	MOVQ  b+32(FP), R10
	MOVQ  rows+40(FP), DX
	MOVQ  coefs+48(FP), R11
	MOVQ  nRows+64(FP), R12
	LEAQ  (R11)(R12*8), R12 // end of the coefficients
	LEAQ  st+72(FP), AX     // st, then sw
	MOVQ  dim+56(FP), CX
	SHLQ  $3, CX // row stride in bytes
	MOVQ  CX, BX
	TESTQ R9, R9
	JZ    gradTGroup
	TESTQ R10, R10
	JZ    gradDGroup

gradSGroup:
	CMPQ BX, $160
	JLT  gradSBlock
	LOAD5(R8, Y0, Y1, Y2, Y3, Y4)
	LOAD5(R9, Y5, Y6, Y7, Y8, Y9)
	GRAD_START

gradSRow:
	GRAD2_ROW(gradSDo, gradSNext)
	GRAD2_CW
	GRAD2_S((SI), (R13), (DI), (R10), Y0, Y5)
	GRAD2_S(32(SI), 32(R13), 32(DI), 32(R10), Y1, Y6)
	GRAD2_S(64(SI), 64(R13), 64(DI), 64(R10), Y2, Y7)
	GRAD2_S(96(SI), 96(R13), 96(DI), 96(R10), Y3, Y8)
	GRAD2_S(128(SI), 128(R13), 128(DI), 128(R10), Y4, Y9)

gradSNext:
	GRAD_NEXT(gradSRow)
	STORE5(R8, Y0, Y1, Y2, Y3, Y4)
	STORE5(R9, Y5, Y6, Y7, Y8, Y9)
	GRAD_ADVANCE(160)
	JMP gradSGroup

gradSBlock:
	GRAD2_MASK(gradDone)
	VMASKMOVPD (SI), Y7, Y1
	VMASKMOVPD (DI), Y7, Y2
	VMASKMOVPD (R10), Y7, Y3
	VMASKMOVPD (R8), Y7, Y0
	VMASKMOVPD (R9), Y7, Y5
	GRAD_START

gradSBlockRow:
	GRAD2_ROW(gradSBlockDo, gradSBlockNext)
	GRAD2_CW
	VMASKMOVPD (R13), Y7, Y4
	GRAD2_S(Y1, Y4, Y2, Y3, Y0, Y5)

gradSBlockNext:
	GRAD_NEXT(gradSBlockRow)
	VMASKMOVPD Y0, Y7, (R8)
	VMASKMOVPD Y5, Y7, (R9)
	GRAD_ADVANCE(32)
	JMP gradSBlock

gradDGroup:
	CMPQ BX, $160
	JLT  gradDBlock
	LOAD5(R8, Y0, Y1, Y2, Y3, Y4)
	LOAD5(R9, Y5, Y6, Y7, Y8, Y9)
	GRAD_START

gradDRow:
	GRAD2_ROW(gradDDo, gradDNext)
	GRAD2_CW
	GRAD2_D((SI), (R13), (DI), Y0, Y5)
	GRAD2_D(32(SI), 32(R13), 32(DI), Y1, Y6)
	GRAD2_D(64(SI), 64(R13), 64(DI), Y2, Y7)
	GRAD2_D(96(SI), 96(R13), 96(DI), Y3, Y8)
	GRAD2_D(128(SI), 128(R13), 128(DI), Y4, Y9)

gradDNext:
	GRAD_NEXT(gradDRow)
	STORE5(R8, Y0, Y1, Y2, Y3, Y4)
	STORE5(R9, Y5, Y6, Y7, Y8, Y9)
	GRAD_ADVANCE(160)
	JMP gradDGroup

gradDBlock:
	GRAD2_MASK(gradDone)
	VMASKMOVPD (SI), Y7, Y1
	VMASKMOVPD (DI), Y7, Y2
	VMASKMOVPD (R8), Y7, Y0
	VMASKMOVPD (R9), Y7, Y5
	GRAD_START

gradDBlockRow:
	GRAD2_ROW(gradDBlockDo, gradDBlockNext)
	GRAD2_CW
	VMASKMOVPD (R13), Y7, Y4
	GRAD2_D(Y1, Y4, Y2, Y0, Y5)

gradDBlockNext:
	GRAD_NEXT(gradDBlockRow)
	VMASKMOVPD Y0, Y7, (R8)
	VMASKMOVPD Y5, Y7, (R9)
	GRAD_ADVANCE(32)
	JMP gradDBlock

gradTGroup:
	CMPQ BX, $160
	JLT  gradTBlock
	LOAD5(R8, Y0, Y1, Y2, Y3, Y4)
	GRAD_START

gradTRow:
	GRAD2_ROW(gradTDo, gradTNext)
	GRAD2_T((SI), (R13), (DI), Y0)
	GRAD2_T(32(SI), 32(R13), 32(DI), Y1)
	GRAD2_T(64(SI), 64(R13), 64(DI), Y2)
	GRAD2_T(96(SI), 96(R13), 96(DI), Y3)
	GRAD2_T(128(SI), 128(R13), 128(DI), Y4)

gradTNext:
	GRAD_NEXT(gradTRow)
	STORE5(R8, Y0, Y1, Y2, Y3, Y4)
	GRAD_ADVANCE(160)
	JMP gradTGroup

gradTBlock:
	GRAD2_MASK(gradDone)
	VMASKMOVPD (SI), Y7, Y1
	VMASKMOVPD (DI), Y7, Y2
	VMASKMOVPD (R8), Y7, Y0
	GRAD_START

gradTBlockRow:
	GRAD2_ROW(gradTBlockDo, gradTBlockNext)
	VMASKMOVPD (R13), Y7, Y4
	GRAD2_T(Y1, Y4, Y2, Y0)

gradTBlockNext:
	GRAD_NEXT(gradTBlockRow)
	VMASKMOVPD Y0, Y7, (R8)
	GRAD_ADVANCE(32)
	JMP gradTBlock

gradDone:
	VZEROUPPER
	RET

// GRAD5_ROW broadcasts the row's coefficient c into Z9 and goes to next
// when c is zero and ordered — the scalar `c == 0` skip; a NaN is
// processed — else on through do, where Z10 = c·st: a lane-wise product of
// broadcasts, so each lane is the scalar c2.
#define GRAD5_ROW(do, next) \
	VBROADCASTSD (R14), Z9; \
	VUCOMISD     X15, X9; \
	JNE          do; \
	JNP          next; \
do: \
	VMULPD       Z12, Z9, Z10

// GRAD5_T, GRAD5_D and GRAD5_S are gradAccumRows' per-dimension statements
// on the eight lanes of one block — t-only, direct-weight and squared form:
// d = t − x; gt += (c2·a)·d; gw += (cw·d)·d or gw += ((cw·b)·d)·d, with
// cw in Z11. x, a and b are the block's operands (memory or register), tv
// its t, gt and gw its accumulators. Clobbers Z6..Z8.
#define GRAD5_T(x, a, tv, gt) \
	VSUBPD x, tv, Z6; \
	VMULPD a, Z10, Z7; \
	VMULPD Z6, Z7, Z7; \
	VADDPD Z7, gt, gt

#define GRAD5_D(x, a, tv, gt, gw) \
	VSUBPD x, tv, Z6; \
	VMULPD a, Z10, Z7; \
	VMULPD Z6, Z7, Z7; \
	VADDPD Z7, gt, gt; \
	VMULPD Z6, Z11, Z8; \
	VMULPD Z6, Z8, Z8; \
	VADDPD Z8, gw, gw

#define GRAD5_S(x, a, b, tv, gt, gw) \
	VSUBPD x, tv, Z6; \
	VMULPD a, Z10, Z7; \
	VMULPD Z6, Z7, Z7; \
	VADDPD Z7, gt, gt; \
	VMULPD b, Z11, Z8; \
	VMULPD Z6, Z8, Z8; \
	VMULPD Z6, Z8, Z8; \
	VADDPD Z8, gw, gw

// LOAD6 and STORE6 move six consecutive blocks at p to or from registers.
#define LOAD6(p, r0, r1, r2, r3, r4, r5) \
	VMOVUPD (p), r0; \
	VMOVUPD 64(p), r1; \
	VMOVUPD 128(p), r2; \
	VMOVUPD 192(p), r3; \
	VMOVUPD 256(p), r4; \
	VMOVUPD 320(p), r5

#define STORE6(p, r0, r1, r2, r3, r4, r5) \
	VMOVUPD r0, (p); \
	VMOVUPD r1, 64(p); \
	VMOVUPD r2, 128(p); \
	VMOVUPD r3, 192(p); \
	VMOVUPD r4, 256(p); \
	VMOVUPD r5, 320(p)

// GRAD5_MASK starts a single-block pass: to done when no dimension is
// left, else K1 = 0xFF for a whole block and the tail mask K2 for the
// last dim%8 dimensions. Clobbers R13, R14.
#define GRAD5_MASK(done) \
	CMPQ    BX, $0; \
	JLE     done; \
	KMOVW   K2, R13; \
	MOVL    $0xFF, R14; \
	CMPQ    BX, $64; \
	CMOVQLT R13, R14; \
	KMOVW   R14, K1

// func gradRowsAVX512(gt, gw, t, a, b, rows, coefs *float64, dim, nRows int, st, sw float64)
//
// gradRowsAVX2's statements eight dimensions at a time, with the loops
// turned round: dimensions outer, rows inner. A pass over a group of six
// 8-dimension blocks loads the group's t (Z0..Z5) and its gt and gw
// accumulators (Z16..Z21, Z22..Z27) into registers, runs every row through
// them and stores the accumulators once, so no row waits on a store the
// row before it made. The order changes no bit: lane k of a block still
// sees only dimension k and adds its terms — one per row with a non-zero
// coefficient, each formed by the scalar statements in the scalar
// association — in row order; only which dimensions a row visits between
// two rows' terms has changed, and no lane reads another. The dimensions
// past the last whole group run one block per pass under the opmask K1,
// 0xFF for a whole block and (1 << dim%8) − 1 for the tail: masked loads
// read nothing past the row (a masked-off lane is neither fetched nor able
// to fault) and zero those lanes, and masked stores write back only the
// live ones. The coefficient test is made once per row per pass.
TEXT ·gradRowsAVX512(SB), NOSPLIT, $0-88
	MOVQ  dim+56(FP), CX
	ANDQ  $7, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K2 // live lanes of the tail block
	MOVQ  gt+0(FP), R8
	MOVQ  gw+8(FP), R9
	MOVQ  t+16(FP), SI
	MOVQ  a+24(FP), DI
	MOVQ  b+32(FP), R10
	MOVQ  rows+40(FP), DX
	MOVQ  coefs+48(FP), R11
	MOVQ  nRows+64(FP), R12
	LEAQ  (R11)(R12*8), R12 // end of the coefficients
	MOVQ  dim+56(FP), CX
	SHLQ  $3, CX // row stride in bytes
	MOVQ  CX, BX
	VBROADCASTSD st+72(FP), Z12
	VBROADCASTSD sw+80(FP), Z13
	VXORPD X15, X15, X15 // 0.0
	TESTQ R9, R9
	JZ    grad5TGroup
	TESTQ R10, R10
	JZ    grad5DGroup

grad5SGroup:
	CMPQ BX, $384
	JLT  grad5SBlock
	LOAD6(SI, Z0, Z1, Z2, Z3, Z4, Z5)
	LOAD6(R8, Z16, Z17, Z18, Z19, Z20, Z21)
	LOAD6(R9, Z22, Z23, Z24, Z25, Z26, Z27)
	GRAD_START

grad5SRow:
	GRAD5_ROW(grad5SDo, grad5SNext)
	VMULPD Z13, Z9, Z11 // cw = c * sw
	GRAD5_S((R13), (DI), (R10), Z0, Z16, Z22)
	GRAD5_S(64(R13), 64(DI), 64(R10), Z1, Z17, Z23)
	GRAD5_S(128(R13), 128(DI), 128(R10), Z2, Z18, Z24)
	GRAD5_S(192(R13), 192(DI), 192(R10), Z3, Z19, Z25)
	GRAD5_S(256(R13), 256(DI), 256(R10), Z4, Z20, Z26)
	GRAD5_S(320(R13), 320(DI), 320(R10), Z5, Z21, Z27)

grad5SNext:
	GRAD_NEXT(grad5SRow)
	STORE6(R8, Z16, Z17, Z18, Z19, Z20, Z21)
	STORE6(R9, Z22, Z23, Z24, Z25, Z26, Z27)
	GRAD_ADVANCE(384)
	JMP grad5SGroup

grad5SBlock:
	GRAD5_MASK(grad5Done)
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (DI), K1, Z1
	VMOVUPD.Z (R10), K1, Z2
	VMOVUPD.Z (R8), K1, Z16
	VMOVUPD.Z (R9), K1, Z22
	GRAD_START

grad5SBlockRow:
	GRAD5_ROW(grad5SBlockDo, grad5SBlockNext)
	VMULPD    Z13, Z9, Z11
	VMOVUPD.Z (R13), K1, Z3
	GRAD5_S(Z3, Z1, Z2, Z0, Z16, Z22)

grad5SBlockNext:
	GRAD_NEXT(grad5SBlockRow)
	VMOVUPD Z16, K1, (R8)
	VMOVUPD Z22, K1, (R9)
	GRAD_ADVANCE(64)
	JMP grad5SBlock

grad5DGroup:
	CMPQ BX, $384
	JLT  grad5DBlock
	LOAD6(SI, Z0, Z1, Z2, Z3, Z4, Z5)
	LOAD6(R8, Z16, Z17, Z18, Z19, Z20, Z21)
	LOAD6(R9, Z22, Z23, Z24, Z25, Z26, Z27)
	GRAD_START

grad5DRow:
	GRAD5_ROW(grad5DDo, grad5DNext)
	VMULPD Z13, Z9, Z11
	GRAD5_D((R13), (DI), Z0, Z16, Z22)
	GRAD5_D(64(R13), 64(DI), Z1, Z17, Z23)
	GRAD5_D(128(R13), 128(DI), Z2, Z18, Z24)
	GRAD5_D(192(R13), 192(DI), Z3, Z19, Z25)
	GRAD5_D(256(R13), 256(DI), Z4, Z20, Z26)
	GRAD5_D(320(R13), 320(DI), Z5, Z21, Z27)

grad5DNext:
	GRAD_NEXT(grad5DRow)
	STORE6(R8, Z16, Z17, Z18, Z19, Z20, Z21)
	STORE6(R9, Z22, Z23, Z24, Z25, Z26, Z27)
	GRAD_ADVANCE(384)
	JMP grad5DGroup

grad5DBlock:
	GRAD5_MASK(grad5Done)
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (DI), K1, Z1
	VMOVUPD.Z (R8), K1, Z16
	VMOVUPD.Z (R9), K1, Z22
	GRAD_START

grad5DBlockRow:
	GRAD5_ROW(grad5DBlockDo, grad5DBlockNext)
	VMULPD    Z13, Z9, Z11
	VMOVUPD.Z (R13), K1, Z3
	GRAD5_D(Z3, Z1, Z0, Z16, Z22)

grad5DBlockNext:
	GRAD_NEXT(grad5DBlockRow)
	VMOVUPD Z16, K1, (R8)
	VMOVUPD Z22, K1, (R9)
	GRAD_ADVANCE(64)
	JMP grad5DBlock

grad5TGroup:
	CMPQ BX, $384
	JLT  grad5TBlock
	LOAD6(SI, Z0, Z1, Z2, Z3, Z4, Z5)
	LOAD6(R8, Z16, Z17, Z18, Z19, Z20, Z21)
	GRAD_START

grad5TRow:
	GRAD5_ROW(grad5TDo, grad5TNext)
	GRAD5_T((R13), (DI), Z0, Z16)
	GRAD5_T(64(R13), 64(DI), Z1, Z17)
	GRAD5_T(128(R13), 128(DI), Z2, Z18)
	GRAD5_T(192(R13), 192(DI), Z3, Z19)
	GRAD5_T(256(R13), 256(DI), Z4, Z20)
	GRAD5_T(320(R13), 320(DI), Z5, Z21)

grad5TNext:
	GRAD_NEXT(grad5TRow)
	STORE6(R8, Z16, Z17, Z18, Z19, Z20, Z21)
	GRAD_ADVANCE(384)
	JMP grad5TGroup

grad5TBlock:
	GRAD5_MASK(grad5Done)
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (DI), K1, Z1
	VMOVUPD.Z (R8), K1, Z16
	GRAD_START

grad5TBlockRow:
	GRAD5_ROW(grad5TBlockDo, grad5TBlockNext)
	VMOVUPD.Z (R13), K1, Z3
	GRAD5_T(Z3, Z1, Z0, Z16)

grad5TBlockNext:
	GRAD_NEXT(grad5TBlockRow)
	VMOVUPD Z16, K1, (R8)
	GRAD_ADVANCE(64)
	JMP grad5TBlock

grad5Done:
	VZEROUPPER
	RET
