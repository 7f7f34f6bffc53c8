package mat

import (
	"math"
	"math/rand"
	"testing"
)

// randBag draws a random bag (n rows × dim) with values spanning several
// magnitudes, occasionally exactly representable and occasionally not.
func randBag(r *rand.Rand, n, dim int) []float64 {
	rows := make([]float64, n*dim)
	for i := range rows {
		switch r.Intn(5) {
		case 0:
			rows[i] = float64(r.Intn(16)) // exactly representable in float32
		case 1:
			rows[i] = r.NormFloat64() * 1e8
		default:
			rows[i] = r.NormFloat64()
		}
	}
	return rows
}

// TestPackBagSketchContainment pins the sketch's defining invariant: every
// instance value lies inside [lo, hi] of its dimension after the outward
// float32 rounding.
func TestPackBagSketchContainment(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + r.Intn(9)
		n := 1 + r.Intn(6)
		rows := randBag(r, n, dim)
		box := make([]float32, BoxStride*dim)
		PackBagSketch(dim, rows, box)
		for i := 0; i < n; i++ {
			for k := 0; k < dim; k++ {
				v := rows[i*dim+k]
				lo, hi := float64(box[BoxStride*k]), float64(box[BoxStride*k+1])
				if v < lo || v > hi {
					t.Fatalf("trial %d: rows[%d][%d]=%v outside [%v, %v]", trial, i, k, v, lo, hi)
				}
			}
		}
	}
}

// TestPackBagSketchNaN pins the NaN discipline: a NaN anywhere in a
// dimension widens that dimension to (-Inf, +Inf), so its bound
// contribution is zero and the bag is always admitted.
func TestPackBagSketchNaN(t *testing.T) {
	dim := 3
	rows := []float64{1, math.NaN(), 3, 4, 5, 6}
	box := make([]float32, BoxStride*dim)
	PackBagSketch(dim, rows, box)
	if !math.IsInf(float64(box[BoxStride*1]), -1) || !math.IsInf(float64(box[BoxStride*1+1]), 1) {
		t.Fatalf("NaN dimension not widened: [%v, %v]", box[2], box[3])
	}
	// Unaffected dimensions keep tight bounds.
	if float64(box[0]) > 1 || float64(box[1]) < 4 {
		t.Fatalf("dimension 0 bounds wrong: [%v, %v]", box[0], box[1])
	}
	p := []float64{100, 100, 100}
	w := []float64{1, 1, 1}
	b := boxBoundScalar(p, w, box, math.Inf(1))
	// The widened dimension contributes 0; the others their box excess.
	if math.IsNaN(b) || math.IsInf(b, 0) {
		t.Fatalf("bound not finite with NaN dim widened: %v", b)
	}
}

// TestPackBagSketchOverflow pins the float32 overflow edge: values beyond
// float32 range must round outward to ±Inf, never to a finite bound that
// would exclude the instance.
func TestPackBagSketchOverflow(t *testing.T) {
	dim := 1
	huge := 1e300
	rows := []float64{-huge, huge}
	box := make([]float32, BoxStride*dim)
	PackBagSketch(dim, rows, box)
	if !math.IsInf(float64(box[0]), -1) {
		t.Fatalf("lo should round down to -Inf, got %v", box[0])
	}
	if !math.IsInf(float64(box[1]), 1) {
		t.Fatalf("hi should round up to +Inf, got %v", box[1])
	}
	// A fully widened box admits everything: bound is 0.
	if b := boxBoundScalar([]float64{5}, []float64{2}, box, math.Inf(1)); b != 0 {
		t.Fatalf("widened box bound = %v, want 0", b)
	}
}

// exactMin is the reference the bound must never exceed: the exact scored
// min over instances, computed with the same blocked kernel the scan uses.
func exactMin(p, w, rows []float64, dim int) float64 {
	best := math.Inf(1)
	for o := 0; o+dim <= len(rows); o += dim {
		d := WeightedSqDistBlocked(rows[o:o+dim], p, w)
		if d < best {
			best = d
		}
	}
	return best
}

// TestBoxBoundLowerBound is the core soundness property: for random bags,
// concept points and weights, the sketch bound never exceeds the exact
// kernel's min-distance, and BoxBoundExceeds(thr) never rejects a bag whose
// exact distance is within thr.
func TestBoxBoundLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		dim := 1 + r.Intn(12)
		n := 1 + r.Intn(5)
		rows := randBag(r, n, dim)
		box := make([]float32, BoxStride*dim)
		PackBagSketch(dim, rows, box)
		p := make([]float64, dim)
		w := make([]float64, dim)
		for k := range p {
			p[k] = r.NormFloat64() * 2
			w[k] = r.Float64() * 3
		}
		exact := exactMin(p, w, rows, dim)
		bound := boxBoundScalar(p, w, box, math.Inf(1))
		if bound > exact {
			t.Fatalf("trial %d: bound %v > exact %v (dim=%d n=%d)", trial, bound, exact, dim, n)
		}
		// The abandoning variant agrees with the full bound's comparison.
		for _, thr := range []float64{exact, exact / 2, exact * 2, 0} {
			if BoxBoundExceeds(p, w, box, thr) && !(bound > thr) {
				t.Fatalf("trial %d: Exceeds(%v) true but bound %v <= thr", trial, thr, bound)
			}
			if BoxBoundExceeds(p, w, box, thr) && exact <= thr {
				t.Fatalf("trial %d: rejected bag with exact %v <= thr %v", trial, exact, thr)
			}
		}
	}
}
