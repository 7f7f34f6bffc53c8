//go:build !purego

// AVX2 and AVX-512 bodies of the training kernels in grad.go. As in
// kernel_amd64.s every sequence transcribes its scalar oracle one operation
// at a time — separate multiplies and adds in the scalar association, no
// VFMADD anywhere — and neither kernel has a cross-lane step, so the two
// widths run the same arithmetic on four or eight lanes and differ in
// nothing a result can see. The AVX-512 bodies use AVX512F instructions
// only (VPXORQ, not the DQ form of VXORPD, to clear a ZMM). VZEROUPPER
// precedes every RET.

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

// func distTilesAVX512(p, w, tiles *float64, dim, nTiles int, out *float64)
//
// distTilesAVX2 with the eight rows of a tile in one ZMM: Z6 carries the
// running sums, each dimension is one 64-byte load, and w enters its
// multiply as an embedded broadcast. Same statements, same order.
TEXT ·distTilesAVX512(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ tiles+16(FP), DX
	MOVQ dim+24(FP), CX
	MOVQ nTiles+32(FP), R9
	MOVQ out+40(FP), R10
	MOVQ CX, R14
	ANDQ $-4, R14 // dimensions in whole blocks

tile5:
	VPXORQ Z6, Z6, Z6 // sums, rows 0..7
	XORQ   BX, BX     // dimension index

tile5Blocks:
	CMPQ BX, R14
	JGE  tile5Tail
	VBROADCASTSD (SI)(BX*8), Z8
	VBROADCASTSD 8(SI)(BX*8), Z9
	VBROADCASTSD 16(SI)(BX*8), Z10
	VBROADCASTSD 24(SI)(BX*8), Z11
	VSUBPD (DX), Z8, Z0                // d0 = p0 - x0
	VSUBPD 64(DX), Z9, Z1              // d1
	VSUBPD 128(DX), Z10, Z2            // d2
	VSUBPD 192(DX), Z11, Z3            // d3
	VMULPD.BCST (DI)(BX*8), Z0, Z4     // w0 * d0
	VMULPD.BCST 8(DI)(BX*8), Z1, Z5    // w1 * d1
	VMULPD.BCST 16(DI)(BX*8), Z2, Z12  // w2 * d2
	VMULPD.BCST 24(DI)(BX*8), Z3, Z13  // w3 * d3
	VMULPD Z0, Z4, Z0                  // (w0*d0) * d0
	VMULPD Z1, Z5, Z1
	VMULPD Z2, Z12, Z2
	VMULPD Z3, Z13, Z3
	VADDPD Z2, Z0, Z0                  // s0 = m0 + m2
	VADDPD Z3, Z1, Z1                  // s1 = m1 + m3
	VADDPD Z1, Z0, Z0                  // s0 + s1
	VADDPD Z0, Z6, Z6                  // sum += s0 + s1
	ADDQ   $256, DX
	ADDQ   $4, BX
	JMP    tile5Blocks

tile5Tail:
	CMPQ BX, CX
	JGE  tile5Store
	VPXORQ Z2, Z2, Z2 // tail accumulator s

tile5TailLoop:
	VBROADCASTSD (SI)(BX*8), Z8
	VSUBPD (DX), Z8, Z0            // d = p - x
	VMULPD.BCST (DI)(BX*8), Z0, Z4 // w * d
	VMULPD Z0, Z4, Z0              // (w*d) * d
	VADDPD Z0, Z2, Z2              // s += term
	ADDQ   $64, DX
	INCQ   BX
	CMPQ   BX, CX
	JL     tile5TailLoop
	VADDPD Z2, Z6, Z6              // sum += s

tile5Store:
	VMOVUPD Z6, (R10)
	ADDQ $64, R10
	DECQ R9
	JNZ  tile5
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
// forms. gw == nil selects the t-only loops (fixed weights); b == nil with
// gw set selects the direct-weight loops, gw += (cw*d)*d with no factor b.
// Caller guarantees dim >= 1, nRows >= 1 and non-overlapping gt/gw versus
// inputs.
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
	TESTQ R10, R10
	JZ    gradDBlocks

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

gradDBlocks:
	CMPQ BX, R14
	JGE  gradDTail
	VMOVUPD (SI)(BX*1), Y0      // t block
	VSUBPD  (DX)(BX*1), Y0, Y0  // d = t - x
	VMULPD  (DI)(BX*1), Y14, Y2 // c2 * a
	VMULPD  Y0, Y2, Y2          // (c2*a) * d
	VMOVUPD (R8)(BX*1), Y3
	VADDPD  Y2, Y3, Y3          // gt + term
	VMOVUPD Y3, (R8)(BX*1)
	VMULPD  Y0, Y15, Y4         // cw * d
	VMULPD  Y0, Y4, Y4          // (cw*d) * d
	VMOVUPD (R9)(BX*1), Y5
	VADDPD  Y4, Y5, Y5          // gw + term
	VMOVUPD Y5, (R9)(BX*1)
	ADDQ    $32, BX
	JMP     gradDBlocks

gradDTail:
	CMPQ BX, CX
	JGE  gradNext
	VMOVSD (SI)(BX*1), X0
	VSUBSD (DX)(BX*1), X0, X0
	VMULSD (DI)(BX*1), X14, X2
	VMULSD X0, X2, X2
	VMOVSD (R8)(BX*1), X3
	VADDSD X2, X3, X3
	VMOVSD X3, (R8)(BX*1)
	VMULSD X0, X15, X4
	VMULSD X0, X4, X4
	VMOVSD (R9)(BX*1), X5
	VADDSD X4, X5, X5
	VMOVSD X5, (R9)(BX*1)
	ADDQ   $8, BX
	JMP    gradDTail

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

// func gradRowsAVX512(gt, gw, t, a, b, rows, coefs *float64, dim, nRows int, st, sw float64)
//
// gradRowsAVX2 eight dimensions at a time. The dim%8 trailing dimensions
// are one more block under the opmask K1 = (1 << dim%8) − 1: masked loads
// read nothing past the row (a masked-off lane is neither fetched nor able
// to fault) and zero those lanes, the block's arithmetic runs on all eight,
// and masked stores write back only the live ones — so the tail, too, is the
// scalar statement sequence per dimension.
TEXT ·gradRowsAVX512(SB), NOSPLIT, $0-88
	MOVQ dim+56(FP), CX
	ANDQ $7, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1 // live lanes of the tail block
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
	ANDQ $-64, R14 // tail start: (dim &^ 7) * 8
	VXORPD X11, X11, X11 // 0.0

grad5Row:
	VMOVSD   (R11), X10 // c
	VUCOMISD X11, X10   // c == 0 and ordered: skip
	JNE  grad5Do
	JP   grad5Do
	JMP  grad5Next

grad5Do:
	VMULSD X12, X10, X14 // c2 = c * st
	VBROADCASTSD X14, Z14
	XORQ  BX, BX
	TESTQ R9, R9
	JZ    grad5TBlocks
	VMULSD X13, X10, X15 // cw = c * sw
	VBROADCASTSD X15, Z15
	TESTQ R10, R10
	JZ    grad5DBlocks

grad5Blocks:
	CMPQ BX, R14
	JGE  grad5Tail
	VMOVUPD (SI)(BX*1), Z0       // t block
	VSUBPD  (DX)(BX*1), Z0, Z0   // d = t - x
	VMULPD  (DI)(BX*1), Z14, Z2  // c2 * a
	VMULPD  Z0, Z2, Z2           // (c2*a) * d
	VMOVUPD (R8)(BX*1), Z3
	VADDPD  Z2, Z3, Z3           // gt + term
	VMOVUPD Z3, (R8)(BX*1)
	VMULPD  (R10)(BX*1), Z15, Z4 // cw * b
	VMULPD  Z0, Z4, Z4           // (cw*b) * d
	VMULPD  Z0, Z4, Z4           // ((cw*b)*d) * d
	VMOVUPD (R9)(BX*1), Z5
	VADDPD  Z4, Z5, Z5           // gw + term
	VMOVUPD Z5, (R9)(BX*1)
	ADDQ    $64, BX
	JMP     grad5Blocks

grad5Tail:
	CMPQ BX, CX
	JGE  grad5Next
	VMOVUPD.Z (SI)(BX*1), K1, Z0
	VMOVUPD.Z (DX)(BX*1), K1, Z1
	VSUBPD  Z1, Z0, Z0
	VMOVUPD.Z (DI)(BX*1), K1, Z2
	VMULPD  Z2, Z14, Z2
	VMULPD  Z0, Z2, Z2
	VMOVUPD.Z (R8)(BX*1), K1, Z3
	VADDPD  Z2, Z3, Z3
	VMOVUPD Z3, K1, (R8)(BX*1)
	VMOVUPD.Z (R10)(BX*1), K1, Z4
	VMULPD  Z4, Z15, Z4
	VMULPD  Z0, Z4, Z4
	VMULPD  Z0, Z4, Z4
	VMOVUPD.Z (R9)(BX*1), K1, Z5
	VADDPD  Z4, Z5, Z5
	VMOVUPD Z5, K1, (R9)(BX*1)
	JMP     grad5Next

grad5DBlocks:
	CMPQ BX, R14
	JGE  grad5DTail
	VMOVUPD (SI)(BX*1), Z0      // t block
	VSUBPD  (DX)(BX*1), Z0, Z0  // d = t - x
	VMULPD  (DI)(BX*1), Z14, Z2 // c2 * a
	VMULPD  Z0, Z2, Z2          // (c2*a) * d
	VMOVUPD (R8)(BX*1), Z3
	VADDPD  Z2, Z3, Z3          // gt + term
	VMOVUPD Z3, (R8)(BX*1)
	VMULPD  Z0, Z15, Z4         // cw * d
	VMULPD  Z0, Z4, Z4          // (cw*d) * d
	VMOVUPD (R9)(BX*1), Z5
	VADDPD  Z4, Z5, Z5          // gw + term
	VMOVUPD Z5, (R9)(BX*1)
	ADDQ    $64, BX
	JMP     grad5DBlocks

grad5DTail:
	CMPQ BX, CX
	JGE  grad5Next
	VMOVUPD.Z (SI)(BX*1), K1, Z0
	VMOVUPD.Z (DX)(BX*1), K1, Z1
	VSUBPD  Z1, Z0, Z0
	VMOVUPD.Z (DI)(BX*1), K1, Z2
	VMULPD  Z2, Z14, Z2
	VMULPD  Z0, Z2, Z2
	VMOVUPD.Z (R8)(BX*1), K1, Z3
	VADDPD  Z2, Z3, Z3
	VMOVUPD Z3, K1, (R8)(BX*1)
	VMULPD  Z0, Z15, Z4
	VMULPD  Z0, Z4, Z4
	VMOVUPD.Z (R9)(BX*1), K1, Z5
	VADDPD  Z4, Z5, Z5
	VMOVUPD Z5, K1, (R9)(BX*1)
	JMP     grad5Next

grad5TBlocks:
	CMPQ BX, R14
	JGE  grad5TTail
	VMOVUPD (SI)(BX*1), Z0
	VSUBPD  (DX)(BX*1), Z0, Z0
	VMULPD  (DI)(BX*1), Z14, Z2
	VMULPD  Z0, Z2, Z2
	VMOVUPD (R8)(BX*1), Z3
	VADDPD  Z2, Z3, Z3
	VMOVUPD Z3, (R8)(BX*1)
	ADDQ    $64, BX
	JMP     grad5TBlocks

grad5TTail:
	CMPQ BX, CX
	JGE  grad5Next
	VMOVUPD.Z (SI)(BX*1), K1, Z0
	VMOVUPD.Z (DX)(BX*1), K1, Z1
	VSUBPD  Z1, Z0, Z0
	VMOVUPD.Z (DI)(BX*1), K1, Z2
	VMULPD  Z2, Z14, Z2
	VMULPD  Z0, Z2, Z2
	VMOVUPD.Z (R8)(BX*1), K1, Z3
	VADDPD  Z2, Z3, Z3
	VMOVUPD Z3, K1, (R8)(BX*1)

grad5Next:
	ADDQ CX, DX // next row
	ADDQ $8, R11
	DECQ R12
	JNZ  grad5Row
	VZEROUPPER
	RET
