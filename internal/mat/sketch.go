// Per-bag sketches: the compact geometric summaries the candidate-pruning
// tier (internal/index/prune.go) screens bags with before the exact blocked
// kernel runs. A bag's sketch is an axis-aligned bounding box over its
// instances, float32 lo/hi interleaved per dimension, rounded OUTWARD to
// float32 — so the box provably contains every instance even after
// narrowing, and a lower bound derived from it can never exceed any
// instance's exact distance.
//
// BoxBoundExceeds is the admission test. It mirrors the canonical blocked
// kernel's accumulation order exactly (same block pairing, same association,
// same strict-> abandon), so its partial sums are term-wise ≤ the exact
// kernel's partial sums for EVERY instance of the bag: per dimension the box
// excess e = max(0, lo−p, p−hi) satisfies e ≤ |v−p| for every instance
// value v (outward rounding gives float64(lo32) ≤ lo ≤ v, and rounding is
// monotone), non-negative weights keep every term ordered, and identical
// association preserves ≤ through the sums. A bag the bound rejects
// therefore has exact distance strictly above the threshold on every
// instance — it cannot enter the top-k.
//
// NaN discipline matches the kernels': a NaN query dimension contributes a
// zero excess (both compares are NaN-false), a NaN weight poisons the sum so
// the strict-> abandon never fires — both degrade to "admit", never to a
// wrong rejection. NaN instance values are handled at build time
// (PackBagSketch widens the dimension to (-Inf,+Inf)), because a NaN never
// updates a running min/max and would otherwise leave a falsely tight box.
package mat

import "math"

// BoxStride is the number of float32s one bag's bounding box occupies per
// dimension: lo and hi, interleaved (box[2k] = lo_k, box[2k+1] = hi_k).
const BoxStride = 2

// PackBagSketch fills box (lo/hi interleaved float32s) from one bag's
// row-major instance block. The box may cover only the bag's leading
// len(box)/BoxStride ≤ dim dimensions — a screen over a prefix is still a
// valid lower bound, because dropping non-negative terms only shrinks the
// sum, and a shorter box keeps the screen's memory stream small (the index
// caps it at ScreenBoxDims). Box bounds are rounded outward so the float32
// box always contains the float64 instances; a dimension containing any NaN
// is widened to (-Inf,+Inf), which forces a zero lower-bound contribution
// (always admit — the exact kernel is the one that scores NaN bags).
//
// The trailing slice is ignored. It is where a per-bag centroid used to go,
// and stays only so that callers still passing one compile.
func PackBagSketch(dim int, rows []float64, box []float32, _ ...[]float32) {
	n := len(rows) / dim
	if useAVX2.Load() && n > 0 {
		// One pass over the rows in memory order, every dimension's running
		// min and max taken in row order with the scalar loop's
		// compare-and-select operand order — the same floats as the
		// column-at-a-time oracle below (kernel_simd_test.go holds them
		// together).
		packBagSketchAVX2(dim, n, rows, box)
		return
	}
	packBagSketchScalar(dim, rows, box)
}

// packBagSketchScalar is the canonical loop behind PackBagSketch, one
// dimension at a time down the rows — the oracle the AVX2 pass is verified
// against.
//
// milret:kernel
func packBagSketchScalar(dim int, rows []float64, box []float32) {
	n := len(rows) / dim
	boxDims := min(len(box)/BoxStride, dim)
	for k := 0; k < boxDims; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		nan := false
		for r := 0; r < n; r++ {
			v := rows[r*dim+k]
			if math.IsNaN(v) {
				nan = true
				break
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		setSketchDim(box, k, lo, hi, nan || n == 0)
	}
}

// sketchChunk is the most dimensions one call of the AVX2 pass covers: it
// keeps each dimension's running min, max and sum in stack scratch of this
// length.
const sketchChunk = 128

// packBagSketchAVX2 runs the AVX2 pass over the box's dimensions, at most
// sketchChunk at a time, and rounds its results into box. The pass also
// sums each dimension, only to find NaNs cheaply: a NaN instance value
// leaves its dimension's sum NaN — and so does a dimension holding both
// infinities, which the scalar loop does not widen — so only a NaN sum
// sends the pass back to the column to look for a NaN.
func packBagSketchAVX2(dim, n int, rows []float64, box []float32) {
	boxDims := min(len(box)/BoxStride, dim)
	var lo, hi, sum [sketchChunk]float64
	for k0 := 0; k0 < boxDims; k0 += sketchChunk {
		c := min(sketchChunk, boxDims-k0)
		for j := 0; j < c; j++ {
			lo[j], hi[j], sum[j] = math.Inf(1), math.Inf(-1), 0
		}
		sketchRowsAVX2(&rows[k0], dim, n, c, &lo[0], &hi[0], &sum[0])
		for j := 0; j < c; j++ {
			k := k0 + j
			nan := false
			if math.IsNaN(sum[j]) {
				for r := 0; r < n && !nan; r++ {
					nan = math.IsNaN(rows[r*dim+k])
				}
			}
			setSketchDim(box, k, lo[j], hi[j], nan)
		}
	}
}

// setSketchDim stores dimension k's box bounds from its running min and
// max; widen stores the always-admit (-Inf,+Inf) box.
func setSketchDim(box []float32, k int, lo, hi float64, widen bool) {
	if widen {
		box[BoxStride*k] = float32(math.Inf(-1))
		box[BoxStride*k+1] = float32(math.Inf(1))
		return
	}
	box[BoxStride*k] = roundDown32(lo)
	box[BoxStride*k+1] = roundUp32(hi)
}

// roundDown32 converts v to the largest float32 whose value is ≤ v
// (directed rounding toward -Inf).
func roundDown32(v float64) float32 {
	f := float32(v)
	if float64(f) > v {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// roundUp32 converts v to the smallest float32 whose value is ≥ v
// (directed rounding toward +Inf).
func roundUp32(v float64) float32 {
	f := float32(v)
	if float64(f) < v {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// boxExcess returns the distance from p to the interval [lo, hi] along one
// dimension: 0 inside the box, otherwise the gap to the nearer face. Both
// compares are NaN-false, so a NaN query dimension (or a widened ±Inf
// sentinel) yields 0 — an always-admit contribution.
//
// milret:kernel
func boxExcess(p float64, lo, hi float32) float64 {
	var e float64
	if t := float64(lo) - p; t > 0 {
		e = t
	}
	if t := p - float64(hi); t > e {
		e = t
	}
	return e
}

// BoxBoundExceeds reports whether the weighted squared distance from point p
// to bag box (lower-bounding the bag's exact min-instance distance for
// non-negative weights) strictly exceeds thr. The accumulation mirrors the
// canonical blocked kernel — same block pairing, same association, same
// strict-> early abandon — so every partial sum here is ≤ the corresponding
// partial sum of the exact kernel on any instance inside the box, and a
// true return proves the bag's exact distance is > thr.
//
// milret:kernel
func BoxBoundExceeds(p, w []float64, box []float32, thr float64) bool {
	if useAVX2.Load() && len(p) > 0 {
		// The AVX2 screen transcribes the scalar loop below block for block
		// (same deinterleave-widen-excess per dimension, same (s0,s1) fold,
		// same per-block strict-> check, same tail accumulator), so the
		// decision is bit-identical — kernel_simd_test.go and the sketch
		// fuzz target drive both against each other.
		return boxBoundExceedsAVX2(&p[0], &w[0], &box[0], len(p), thr)
	}
	return boxBoundScalar(p, w, box, thr) > thr
}

// boxBoundScalar is the canonical scalar screen loop — the oracle the AVX2
// screen is verified against. It returns the running sum at the first
// block (or the tail) after which it strictly exceeds thr, and the full
// box distance if it never does; at thr = +Inf nothing abandons.
//
// milret:kernel
func boxBoundScalar(p, w []float64, box []float32, thr float64) float64 {
	dim := len(p)
	n := dim - dim%KernelBlock
	sum := 0.0
	for i := 0; i < n; i += KernelBlock {
		b := box[BoxStride*i:]
		e0 := boxExcess(p[i], b[0], b[1])
		e1 := boxExcess(p[i+1], b[2], b[3])
		e2 := boxExcess(p[i+2], b[4], b[5])
		e3 := boxExcess(p[i+3], b[6], b[7])
		sum += sqBlock(e0, e1, e2, e3, w[i], w[i+1], w[i+2], w[i+3])
		if sum > thr {
			return sum
		}
	}
	if n < dim {
		// Tail terms fold into their own accumulator before joining sum —
		// the exact association tailSqDist uses. Folding them into sum
		// directly would round differently and can land one ulp above the
		// exact kernel's total, breaking the term-wise ≤ argument.
		var t float64
		for i := n; i < dim; i++ {
			e := boxExcess(p[i], box[BoxStride*i], box[BoxStride*i+1])
			t += float64(w[i] * e * e)
		}
		sum += t
	}
	return sum
}
