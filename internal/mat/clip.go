// The passes of the §3.6.3 weight projection (internal/optimize's
// BoxSum.Project) over one weight vector: clip every coordinate to a box
// [lo, hi], optionally after shifting it by a common λ, and sum the clipped
// values. clip(v) is v < lo ? lo : (v > hi ? hi : v) throughout — the
// projection's own expression, whose choices for NaN, ±0 and the faces the
// AVX2 bodies (clip_amd64.s) reproduce lane for lane — and every entry
// point requires a box with !(hi < lo), which BoxSum.Validate ensures.
//
// Two kinds of pass, by what their result decides:
//
//   - exact: ClipSum adds its terms in index order from +0, one scalar add
//     after another, because the projection's bisection answers from the
//     rounded sum and every output bit depends on it; Clip and ClipShift
//     store each coordinate's clipped value, which no order can change;
//   - order-free: ClipSumFree only seeds the bisection's bracket with an
//     approximate root, so its bodies add in whatever order is fastest and
//     may differ from the scalar loop in the last bits of the sum.
//
// The AVX-512 tier runs the AVX2 bodies, as it does the scan kernels': the
// exact sum is one serial add chain whatever the register width.

package mat

import "math"

// clip is the box clip every pass applies.
//
// milret:kernel
func clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClipSum returns sum = Σ clip(x[i] + shift), added in index order from +0,
// and least, the first of the smallest x[i] (the unshifted coordinates;
// +Inf for an empty or all-NaN x).
func ClipSum(x []float64, shift, lo, hi float64) (sum, least float64) {
	if useAVX2.Load() && len(x) > 0 {
		return clipSumAVX2(&x[0], len(x), shift, lo, hi)
	}
	return clipSumScalar(x, shift, lo, hi)
}

// clipSumScalar is the oracle behind ClipSum.
//
// milret:kernel
func clipSumScalar(x []float64, shift, lo, hi float64) (sum, least float64) {
	least = math.Inf(1)
	for _, v := range x {
		sum += clip(v+shift, lo, hi)
		if v < least {
			least = v
		}
	}
	return sum, least
}

// ClipSumFree returns Σ clip(x[i] + shift) added in no stated order, and
// free, the number of shifted coordinates strictly inside (lo, hi).
func ClipSumFree(x []float64, shift, lo, hi float64) (sum float64, free int) {
	if useAVX2.Load() && len(x) > 0 {
		return clipSumFreeAVX2(&x[0], len(x), shift, lo, hi)
	}
	return clipSumFreeScalar(x, shift, lo, hi)
}

// clipSumFreeScalar is the portable loop behind ClipSumFree. A coordinate
// on a face adds the face, which can differ from clip's value only in the
// sign of a zero; a NaN one counts as free.
func clipSumFreeScalar(x []float64, shift, lo, hi float64) (sum float64, free int) {
	for _, v := range x {
		t := v + shift
		switch {
		case t <= lo:
			sum += lo
		case t >= hi:
			sum += hi
		default:
			sum += t
			free++
		}
	}
	return sum, free
}

// Clip sets x[i] = clip(x[i]) for every i. It adds no shift: +0 would turn
// a −0 coordinate into +0.
func Clip(x []float64, lo, hi float64) {
	if useAVX2.Load() && len(x) > 0 {
		clipAVX2(&x[0], len(x), lo, hi)
		return
	}
	for i, v := range x {
		x[i] = clip(v, lo, hi)
	}
}

// ClipShift sets x[i] = clip(x[i] + shift) for every i.
func ClipShift(x []float64, shift, lo, hi float64) {
	if useAVX2.Load() && len(x) > 0 {
		clipShiftAVX2(&x[0], len(x), shift, lo, hi)
		return
	}
	for i, v := range x {
		x[i] = clip(v+shift, lo, hi)
	}
}
