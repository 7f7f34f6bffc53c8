package mat

import (
	"math"
	"testing"
)

// FuzzBoxBoundLower differentially fuzzes the sketch tier's soundness
// invariant against the exact kernel: for any bag, concept point and
// weights — NaNs, ±Inf, denormals and every tail size included — the box
// bound computed from the packed sketch must never exceed the exact
// min-distance, and BoxBoundExceeds must never report a rejection the full
// bound (or the exact score) contradicts. This is the property the pruned
// scan's correctness rests on: a violation here is a wrongly skipped bag.
//
// Weights are squared to non-negative (the trainer's contract); the raw
// byte stream supplies everything else unconstrained.
func FuzzBoxBoundLower(f *testing.F) {
	f.Add(uint8(4), uint8(2), mkBytes(1, 2, 3, 4, 0.5, 0.5, 0.5, 0.5), 5.0)
	f.Add(uint8(3), uint8(1), mkBytes(math.NaN(), math.Inf(1), -1e300), 0.0)
	f.Add(uint8(7), uint8(3), mkBytes(1e-300, -1e-300, 0, 1), math.Inf(1))
	f.Add(uint8(1), uint8(4), mkBytes(-1, 1, -2, 2, -3, 3), 1.0)

	f.Fuzz(func(t *testing.T, dimRaw, nRaw uint8, data []byte, thr float64) {
		dim := 1 + int(dimRaw)%21
		n := 1 + int(nRaw)%5
		need := (2 + n) * dim // p, w, then the bag rows
		vals := floatsFromBytes(data, need)
		p, w := vals[:dim], vals[dim:2*dim]
		for i := range w {
			w[i] = w[i] * w[i] // non-negative, NaN stays NaN
		}
		rows := vals[2*dim:]

		box := make([]float32, BoxStride*dim)
		PackBagSketch(dim, rows, box)

		exact := math.Inf(1)
		sawNaN := false
		for o := 0; o < n*dim; o += dim {
			d := WeightedSqDistBlocked(rows[o:o+dim], p, w)
			if math.IsNaN(d) {
				sawNaN = true
			}
			if d < exact {
				exact = d
			}
		}
		bound := boxBoundScalar(p, w, box, math.Inf(1))
		// NaN weights or points poison both sides; the ordering claim only
		// holds for comparable scores.
		if !sawNaN && !math.IsNaN(bound) && bound > exact {
			t.Fatalf("bound %v > exact %v (dim=%d n=%d p=%v w=%v rows=%v)",
				bound, exact, dim, n, p, w, rows)
		}
		// The abandoning variant may only reject what the full bound rejects.
		// A NaN full bound (an Inf·0 term from NaN/Inf weights — outside the
		// trainer's contract) is exempt from that agreement, exactly like the
		// exact kernels' abandon-vs-full contract; the exact-score check
		// below still holds whenever the scores are comparable.
		if BoxBoundExceeds(p, w, box, thr) {
			if !math.IsNaN(bound) && !(bound > thr) {
				t.Fatalf("Exceeds(%v) but bound=%v (dim=%d)", thr, bound, dim)
			}
			if !sawNaN && exact <= thr {
				t.Fatalf("rejected bag with exact %v <= thr %v (dim=%d)", exact, thr, dim)
			}
		}
	})
}
