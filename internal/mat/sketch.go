// Per-bag sketches: the compact geometric summaries the candidate-pruning
// tier (internal/index/prune.go) screens bags with before the exact blocked
// kernel runs. A bag's sketch is an axis-aligned bounding box over its
// instances, float32 lo/hi per dimension, rounded OUTWARD to float32 — so
// the box provably contains every instance even after narrowing, and a
// lower bound derived from it can never exceed any instance's exact
// distance.
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
// The scan stores its boxes in tiles (see BoxTileStride) and screens a
// whole tile per call, BoxTileExceeds, a bag per lane: each lane's decision
// is BoxBoundExceeds on that bag's box, which is what the tile screen's
// scalar tier runs, lane by lane.
//
// NaN discipline matches the kernels': a NaN query dimension contributes a
// zero excess (both compares are NaN-false), a NaN weight poisons the sum so
// the strict-> abandon never fires — both degrade to "admit", never to a
// wrong rejection. NaN instance values are handled at build time
// (PackBagSketch widens the dimension to (-Inf,+Inf)), because a NaN never
// updates a running min/max and would otherwise leave a falsely tight box.
package mat

import (
	"fmt"
	"math"
)

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
	packSketch(dim, rows, boxSketch(box, dim))
}

// PackBagSketchLane is PackBagSketch into lane r of a box tile (see
// BoxTileStride) over the tile's len(tile)/BoxTileStride ≤ dim leading
// dimensions: the same bounds, stored where the tile keeps lane r's, and
// no other lane's touched.
func PackBagSketchLane(dim int, rows []float64, tile []float32, r int) {
	if len(tile) == 0 {
		return
	}
	packSketch(dim, rows, sketchDst{at: tile[r:], dims: min(len(tile)/BoxTileStride, dim), sep: TileRows})
}

// sketchDst is where a bag's sketch goes: dimension k's lo at
// at[2·sep·k] and its hi at at[2·sep·k + sep], for the leading dims
// dimensions — sep 1 for a box, TileRows for a lane of a box tile.
type sketchDst struct {
	at        []float32
	dims, sep int
}

// boxSketch is the sketchDst of a box over its len(box)/BoxStride ≤ dim
// leading dimensions.
func boxSketch(box []float32, dim int) sketchDst {
	return sketchDst{at: box, dims: min(len(box)/BoxStride, dim), sep: 1}
}

func packSketch(dim int, rows []float64, d sketchDst) {
	if n := len(rows) / dim; useAVX2.Load() && n > 0 {
		// One pass over the rows in memory order, every dimension's running
		// min and max taken in row order with the scalar loop's
		// compare-and-select operand order — the same floats as the
		// column-at-a-time oracle below (TestKernelTiers holds them
		// together).
		packBagSketchAVX2(dim, n, rows, d)
		return
	}
	packBagSketchScalar(dim, rows, d)
}

// packBagSketchScalar is the canonical loop behind PackBagSketch, one
// dimension at a time down the rows — the oracle the AVX2 pass is verified
// against.
//
// milret:kernel
func packBagSketchScalar(dim int, rows []float64, d sketchDst) {
	n := len(rows) / dim
	for k := 0; k < d.dims; k++ {
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
		d.set(k, lo, hi, nan || n == 0)
	}
}

// sketchChunk is the most dimensions one call of the AVX2 pass covers: it
// keeps each dimension's running min, max and sum in stack scratch of this
// length.
const sketchChunk = 128

// packBagSketchAVX2 runs the AVX2 pass over the sketch's dimensions, at
// most sketchChunk at a time, and rounds its results into d. The pass also
// sums each dimension, only to find NaNs cheaply: a NaN instance value
// leaves its dimension's sum NaN — and so does a dimension holding both
// infinities, which the scalar loop does not widen — so only a NaN sum
// sends the pass back to the column to look for a NaN.
func packBagSketchAVX2(dim, n int, rows []float64, d sketchDst) {
	var lo, hi, sum [sketchChunk]float64
	for k0 := 0; k0 < d.dims; k0 += sketchChunk {
		c := min(sketchChunk, d.dims-k0)
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
			d.set(k, lo[j], hi[j], nan)
		}
	}
}

// set stores dimension k's bounds from its running min and max; widen
// stores the always-admit (-Inf,+Inf) interval.
func (d sketchDst) set(k int, lo, hi float64, widen bool) {
	at := d.at[2*d.sep*k:]
	if widen {
		at[0] = float32(math.Inf(-1))
		at[d.sep] = float32(math.Inf(1))
		return
	}
	at[0] = roundDown32(lo)
	at[d.sep] = roundUp32(hi)
}

// roundDown32 converts v to the largest float32 whose value is ≤ v
// (directed rounding toward -Inf): the nearest float32, stepped one ulp
// down when it landed above v. The step is bit arithmetic with no branch —
// whether it is taken is data, and a mispredicted branch on it once cost a
// sketch build more than the conversion. A float32's bits order like its
// magnitude, so a step toward -Inf is −1 on a non-negative value's bits and
// +1 on a negative one's; that covers +Inf → MaxFloat32, −0 → the smallest
// negative subnormal and every subnormal. It is never taken at −Inf or NaN,
// where the compare is false.
func roundDown32(v float64) float32 {
	f := float32(v)
	var step uint32
	if float64(f) > v {
		step = 1
	}
	b := math.Float32bits(f)
	return math.Float32frombits(b + (step&(b>>31))<<1 - step)
}

// roundUp32 converts v to the smallest float32 whose value is ≥ v
// (directed rounding toward +Inf), the mirror of roundDown32: +1 on a
// non-negative value's bits, −1 on a negative one's (−Inf → −MaxFloat32).
func roundUp32(v float64) float32 {
	f := float32(v)
	var step uint32
	if float64(f) < v {
		step = 1
	}
	b := math.Float32bits(f)
	return math.Float32frombits(b + step - (step&(b>>31))<<1)
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
// true return proves the bag's exact distance is > thr. A box may cover
// only p's leading len(box)/BoxStride dimensions (PackBagSketch); the bound
// then runs over that prefix, still a lower bound. It is the oracle of
// BoxTileExceeds and the scalar tier's screen of one lane.
//
// milret:kernel
func BoxBoundExceeds(p, w []float64, box []float32, thr float64) bool {
	mustSameLen(len(p), len(w))
	if n := len(box) / BoxStride; n < len(p) {
		p, w = p[:n], w[:n]
	}
	return boxBoundScalar(p, w, box, thr) > thr
}

// boxBoundScalar is the canonical scalar screen loop — the oracle every
// tier of the tile screen is verified against, lane by lane. It returns
// the running sum at the first block (or the tail) after which it strictly
// exceeds thr, and the full box distance if it never does; at thr = +Inf
// nothing abandons.
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

// BoxTileStride is the number of float32s a box tile holds per dimension.
// A tile packs the boxes of TileRows bags dimension-major: for dimension k,
// tile[k·BoxTileStride + r] is bag r's lo and
// tile[k·BoxTileStride + TileRows + r] its hi — the eight lows, then the
// eight highs, one 64-byte line. A vector loaded from it has one bag per
// lane, as WeightedSqDistTiles' tiles have one row per lane, so the
// screen's block fold is vertical adds. Bytes per bag are a box's.
const BoxTileStride = BoxStride * TileRows

// boxTileLane loads lane r of tile into box (lo/hi interleaved).
func boxTileLane(tile []float32, r int, box []float32) {
	for k := 0; k < len(box)/BoxStride; k++ {
		box[BoxStride*k] = tile[k*BoxTileStride+r]
		box[BoxStride*k+1] = tile[k*BoxTileStride+TileRows+r]
	}
}

// BoxTileExceeds screens the TileRows bags of one box tile against thr at
// once and returns done with the bit of every lane BoxBoundExceeds rejects
// set: bit r of the result is done's bit r, or BoxBoundExceeds(p, w, box of
// lane r, thr). A lane already set in done — padding, or a bag the caller
// skips — stays set whatever its values, and once every lane is set the
// screen stops. (The SIMD bodies load every lane; only the scalar tier
// leaves a set lane unread.) The tile covers len(tile)/BoxTileStride
// leading dimensions of p, a prefix screen as a short box is.
//
// The SIMD bodies run boxBoundScalar lane-wise: the same excess, product and
// (s0, s1) fold per lane, vertical adds in place of the scalar loop's, and
// after every block (and after the tail) a lane whose sum strictly exceeds
// thr is set for good — a later NaN cannot unset it, as it cannot undo the
// scalar loop's return. So every lane's decision is the oracle's, on every
// tier.
func BoxTileExceeds(p, w []float64, tile []float32, thr float64, done uint8) uint8 {
	mustSameLen(len(p), len(w))
	if len(tile)%BoxTileStride != 0 {
		panic(fmt.Sprintf("mat: box tile of %d float32s is not whole dimensions of %d", len(tile), BoxTileStride))
	}
	if n := len(tile) / BoxTileStride; n < len(p) {
		p, w = p[:n], w[:n]
	}
	switch {
	case len(p) == 0 || done == 0xFF:
	case useAVX512.Load():
		return boxTileAVX512(&p[0], &w[0], &tile[0], len(p), thr, done)
	case useAVX2.Load():
		return boxTileAVX2(&p[0], &w[0], &tile[0], len(p), thr, done)
	}
	return boxTileScalar(p, w, tile, thr, done)
}

// boxTileScalar is the scalar tier of BoxTileExceeds: each lane not in done
// loaded into a box and screened by BoxBoundExceeds.
func boxTileScalar(p, w []float64, tile []float32, thr float64, done uint8) uint8 {
	var buf [BoxStride * 128]float32
	box := buf[:min(BoxStride*len(p), len(buf))]
	if len(box) < BoxStride*len(p) {
		box = make([]float32, BoxStride*len(p))
	}
	for r := 0; r < TileRows; r++ {
		if done&(1<<r) != 0 {
			continue
		}
		boxTileLane(tile, r, box)
		if BoxBoundExceeds(p, w, box, thr) {
			done |= 1 << r
		}
	}
	return done
}
