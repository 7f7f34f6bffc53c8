// The training-side kernels: the tiled all-rows distance pass and the
// chain-rule gradient accumulation of Diverse Density training
// (internal/core); the third family, the likelihood, is in likelihood.go.
// Like the scan kernels in kernel.go each is a scalar oracle plus assembly
// transcriptions that return the same bits — here two of them, AVX2 and
// AVX-512, behind the dispatch in kernel_dispatch.go.
//
// Neither kernel has a cross-lane step, which is what lets a wider register
// do the scalar loop's arithmetic unchanged. The gradient is a sum over
// instances, per dimension: with a lane per dimension every per-dimension
// sum keeps its instance order. The distance is a sum over dimensions, per
// row: with a lane per row — the tile layout below — the canonical block
// fold (s0 + s1 of the strided pairs, then sum +=) is three vertical adds.
// Multiplies and adds stay separate instructions everywhere; an FMA rounds
// once where the scalar code rounds twice.
//
// Because no lane reads another, the assembly is free to visit the lanes in
// any order, and it picks the order the hardware favours. The scalar
// gradient loop runs rows outer, dimensions inner; the assembly runs them
// the other way round, a group of dimension blocks at a time (five 4-lane
// blocks for AVX2, six 8-lane ones for AVX-512) with the group's
// accumulators held in registers while every row passes through, and one
// load and one store of each per group instead of one per row. Each
// per-dimension sum still receives the same terms, formed by the same
// operations, in instance order, so the bits cannot move. The AVX-512
// distance body scores tiles in pairs, sharing each block's broadcasts of
// the point and the weights between two tiles; a lane's statements are
// those of the single-tile body. (The likelihood's exp bodies are
// the one exception in the package: their oracle, math.Exp, fuses on FMA
// hosts, so they fuse where it does — see likelihood.go.)

package mat

import "fmt"

// TileRows is the number of rows in a tile of the training distance kernel's
// layout: a tile holds TileRows consecutive rows dimension-major — element
// k·TileRows + r is dimension k of the tile's row r — so a vector loaded
// from it has one row per lane. A set of n rows occupies ⌈n/TileRows⌉ tiles
// of TileRows·dim values; the lanes past the last row are padding whose
// distances are computed and never meant to be read.
const TileRows = 8

// TileLanes returns the number of lanes — rows and padding — that nRows rows
// occupy in the tile layout: nRows rounded up to whole tiles.
func TileLanes(nRows int) int { return (nRows + TileRows - 1) / TileRows * TileRows }

// SetTileRow writes row into position r (counted across tiles) of a tiled
// block of len(row)-dimensional rows.
func SetTileRow(tiles []float64, r int, row []float64) {
	base := r/TileRows*TileRows*len(row) + r%TileRows
	for k, v := range row {
		tiles[base+k*TileRows] = v
	}
}

// WeightedSqDistTiles writes, for every row of the tiled block tiles
// (len(tiles) = len(out)·len(p), len(out) a multiple of TileRows; see
// TileRows for the layout), the blocked weighted squared distance from p to
// that row into out — out[r] carries the bits of
// WeightedSqDistBlocked(p, row r, w), padding lanes included. It is the one
// distance pass of training: a call scores a bag, or a whole example set.
// milret:kernel
func WeightedSqDistTiles(p, w, tiles, out []float64) {
	dim := len(p)
	mustSameLen(dim, len(w))
	mustSameLen(len(tiles), len(out)*dim)
	if len(out)%TileRows != 0 {
		panic(fmt.Sprintf("mat: %d rows is not a whole number of %d-row tiles", len(out), TileRows))
	}
	if len(tiles) == 0 {
		return
	}
	switch {
	case useAVX512.Load():
		distTilesAVX512(&p[0], &w[0], &tiles[0], dim, len(out)/TileRows, &out[0])
	case useAVX2.Load():
		distTilesAVX2(&p[0], &w[0], &tiles[0], dim, len(out)/TileRows, &out[0])
	default:
		weightedSqDistTiles(p, w, tiles, out)
	}
}

// weightedSqDistTiles is the scalar oracle behind WeightedSqDistTiles: per
// lane, the loop of weightedSqDistScalar — sqBlock per block, and the
// tail's statement of tailSqDist with its product explicitly rounded, as
// everywhere in the package, so no compiler may contract it — with the
// row's elements read at the tile's stride. It assumes validated lengths.
// milret:kernel
func weightedSqDistTiles(p, w, tiles, out []float64) {
	dim := len(p)
	w = w[:dim]
	for len(out) > 0 {
		sum := (*[TileRows]float64)(out)
		*sum = [TileRows]float64{}
		i := 0
		for ; i+KernelBlock <= dim; i += KernelBlock {
			v0, v1, v2, v3 := p[i], p[i+1], p[i+2], p[i+3]
			w0, w1, w2, w3 := w[i], w[i+1], w[i+2], w[i+3]
			u0 := (*[TileRows]float64)(tiles[i*TileRows:])
			u1 := (*[TileRows]float64)(tiles[(i+1)*TileRows:])
			u2 := (*[TileRows]float64)(tiles[(i+2)*TileRows:])
			u3 := (*[TileRows]float64)(tiles[(i+3)*TileRows:])
			for r := range sum {
				sum[r] += sqBlock(v0-u0[r], v1-u1[r], v2-u2[r], v3-u3[r], w0, w1, w2, w3)
			}
		}
		if i < dim {
			var s [TileRows]float64
			for ; i < dim; i++ {
				u := (*[TileRows]float64)(tiles[i*TileRows:])
				for r := range s {
					d := p[i] - u[r]
					s[r] += float64(w[i] * d * d)
				}
			}
			for r := range sum {
				sum[r] += s[r]
			}
		}
		tiles, out = tiles[TileRows*dim:], out[TileRows:]
	}
}

// GradAccumRows accumulates the chain-rule gradient of a sum of functions
// of weighted squared distances. For each row x of the row-major block
// rows, in order, whose coefficient c = coefs[r] is not zero, and for every
// dimension k with d = t[k] − x[k]:
//
//	gt[k] += ((c·st)·a[k])·d
//	gw[k] += (((c·sw)·b[k])·d)·d     (skipped entirely when gw is nil)
//	gw[k] += ((c·sw)·d)·d            (when b is nil: no factor b[k])
//
// with exactly that association. The a/b/st/sw arguments cover every
// weight parametrization of core's objectives: a is the effective distance
// weights W and st = 2 always (∂d/∂t_k = 2·W_k·(t_k − x_k)); b = w with
// sw = 2 for the W = w² modes (∂d/∂w_k = 2·w_k·(t_k − x_k)²); b = nil with
// sw = 1 when the weights enter directly (∂d/∂w_k = (t_k − x_k)², and c·1
// is c exactly, so the chain is c·d·d); gw = nil when the weights are fixed.
//
// The scalar loop is the oracle; the AVX2 and AVX-512 bodies, which turn its
// loops round (see the file comment), return the same bits
// (TestKernelTiers, FuzzKernelTiers).
// milret:kernel
func GradAccumRows(gt, gw, t, a, b, rows, coefs []float64, st, sw float64) {
	dim := len(t)
	mustSameLen(dim, len(gt))
	mustSameLen(dim, len(a))
	if gw != nil {
		mustSameLen(dim, len(gw))
		if b != nil {
			mustSameLen(dim, len(b))
		}
	}
	mustSameLen(len(rows), len(coefs)*dim)
	if len(rows) == 0 {
		return
	}
	avx512 := useAVX512.Load()
	if avx512 || useAVX2.Load() {
		var gwp, bp *float64
		if gw != nil {
			gwp = &gw[0]
			if b != nil {
				bp = &b[0]
			}
		}
		if avx512 {
			gradRowsAVX512(&gt[0], gwp, &t[0], &a[0], bp, &rows[0], &coefs[0], dim, len(coefs), st, sw)
		} else {
			gradRowsAVX2(&gt[0], gwp, &t[0], &a[0], bp, &rows[0], &coefs[0], dim, len(coefs), st, sw)
		}
		return
	}
	gradAccumRows(gt, gw, t, a, b, rows, coefs, st, sw)
}

// gradAccumRows is the scalar oracle behind GradAccumRows; it assumes
// validated lengths.
// milret:kernel
func gradAccumRows(gt, gw, t, a, b, rows, coefs []float64, st, sw float64) {
	dim := len(t)
	gt = gt[:dim]
	a = a[:dim]
	if gw != nil {
		gw = gw[:dim]
	}
	if b != nil {
		b = b[:dim]
	}
	for r, c := range coefs {
		// A zero coefficient contributes nothing; a NaN one is not zero and
		// must poison the gradient on both paths (the assembly skips on
		// "equal and ordered" only).
		//lint:ignore kernelpure the skip needs an exact zero test; NaN compares unequal and falls through, which the assembly mirrors with JNE+JP
		if c == 0 {
			continue
		}
		x := rows[r*dim : (r+1)*dim]
		c2 := c * st
		cw := c * sw
		switch {
		case gw == nil:
			for k, tk := range t {
				d := tk - x[k]
				gt[k] += float64(c2 * a[k] * d)
			}
		case b == nil:
			for k, tk := range t {
				d := tk - x[k]
				gt[k] += float64(c2 * a[k] * d)
				gw[k] += float64(cw * d * d)
			}
		default:
			for k, tk := range t {
				d := tk - x[k]
				gt[k] += float64(c2 * a[k] * d)
				gw[k] += float64(cw * b[k] * d * d)
			}
		}
	}
}
