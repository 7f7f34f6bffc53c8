// The training-side kernels: the batched all-rows distance pass and the
// chain-rule gradient accumulation of Diverse Density training
// (internal/core). Like the scan kernels in kernel.go they come as a scalar
// oracle plus an AVX2 transcription behind the same useAVX2 dispatch, and
// the two return the same bits.
//
// The gradient is a sum over instances, per dimension. Vectorizing across
// dimensions leaves every per-dimension sum in its original instance order
// — there is no horizontal fold at all — so the AVX2 body is the scalar
// body four lanes at a time: separate VMULPD/VADDPD, never FMA-contracted.

package mat

import "math"

// WeightedSqDistRows writes, for every row of the row-major block rows
// (len(rows) = len(out)·len(p)), the blocked weighted squared distance from
// p to that row into out — out[r] carries the bits of
// WeightedSqDistBlocked(p, row r, w). One call scores a whole example set,
// so the training hot loop pays one dispatch per evaluation instead of a
// chain of calls per instance.
// milret:kernel
func WeightedSqDistRows(p, w, rows, out []float64) {
	dim := len(p)
	mustSameLen(dim, len(w))
	mustSameLen(len(rows), len(out)*dim)
	if len(rows) == 0 {
		return
	}
	if useAVX2.Load() {
		distRowsAVX2(&p[0], &w[0], &rows[0], dim, len(out), &out[0])
		return
	}
	for r := range out {
		out[r], _ = weightedSqDistResume(p, rows[r*dim:(r+1)*dim], w, 0, 0, math.Inf(1))
	}
}

// GradAccumRows accumulates the chain-rule gradient of a sum of functions
// of weighted squared distances. For each row x of the row-major block
// rows, in order, whose coefficient c = coefs[r] is not zero, and for every
// dimension k with d = t[k] − x[k]:
//
//	gt[k] += ((c·st)·a[k])·d
//	gw[k] += (((c·sw)·b[k])·d)·d     (skipped entirely when gw is nil)
//
// with exactly that association. The a/b/st/sw arguments cover every
// weight parametrization of core's objectives: a is the effective distance
// weights W and st = 2 always (∂d/∂t_k = 2·W_k·(t_k − x_k)); b = w with
// sw = 2 for the W = w² modes (∂d/∂w_k = 2·w_k·(t_k − x_k)²); b = ones with
// sw = 1 when the weights enter directly — multiplying by one is exact, so
// the product chain collapses to c·d·d bit for bit; gw = nil when the
// weights are fixed.
//
// This scalar loop is the oracle; on AVX2 hosts the call dispatches to
// gradRowsAVX2, which returns the same bits (FuzzGradKernelSIMDvsScalar).
// milret:kernel
func GradAccumRows(gt, gw, t, a, b, rows, coefs []float64, st, sw float64) {
	dim := len(t)
	mustSameLen(dim, len(gt))
	mustSameLen(dim, len(a))
	if gw != nil {
		mustSameLen(dim, len(gw))
		mustSameLen(dim, len(b))
	}
	mustSameLen(len(rows), len(coefs)*dim)
	if len(rows) == 0 {
		return
	}
	if useAVX2.Load() {
		var gwp, bp *float64
		if gw != nil {
			gwp, bp = &gw[0], &b[0]
		}
		gradRowsAVX2(&gt[0], gwp, &t[0], &a[0], bp, &rows[0], &coefs[0], dim, len(coefs), st, sw)
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
		gw, b = gw[:dim], b[:dim]
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
		if gw == nil {
			for k, tk := range t {
				d := tk - x[k]
				gt[k] += c2 * a[k] * d
			}
			continue
		}
		cw := c * sw
		for k, tk := range t {
			d := tk - x[k]
			gt[k] += c2 * a[k] * d
			gw[k] += cw * b[k] * d * d
		}
	}
}
