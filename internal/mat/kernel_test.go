package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveWeightedSqDist is the straight sequential reference the kernel is
// checked against for value (not bit) agreement.
func naiveWeightedSqDist(v, u, w []float64) float64 {
	var s float64
	for i := range v {
		d := v[i] - u[i]
		s += w[i] * d * d
	}
	return s
}

func randTriple(r *rand.Rand, n int, negWeights bool) (v, u, w []float64) {
	v = make([]float64, n)
	u = make([]float64, n)
	w = make([]float64, n)
	for i := 0; i < n; i++ {
		v[i] = r.NormFloat64()
		u[i] = r.NormFloat64()
		w[i] = r.Float64() * 2
		if negWeights && r.Intn(4) == 0 {
			w[i] = -w[i]
		}
	}
	return
}

// TestKernelMatchesNaiveWithinTolerance: the blocked fold order may round
// differently from the sequential loop, but only by a few ULPs.
func TestKernelMatchesNaiveWithinTolerance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(70) // crosses the KernelBlock boundary both ways, incl. 0
		v, u, w := randTriple(r, n, true)
		got := WeightedSqDistBlocked(v, u, w)
		want := naiveWeightedSqDist(v, u, w)
		scale := math.Abs(want)
		if scale < 1 {
			scale = 1
		}
		return math.Abs(got-want) <= 1e-12*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedSqDistIsBlockedKernel: the public WeightedSqDist must be the
// kernel, bit for bit — this is the cross-path identity every scan relies on.
func TestWeightedSqDistIsBlockedKernel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(64)
		v, u, w := randTriple(r, n, true)
		return WeightedSqDist(v, u, w) == WeightedSqDistBlocked(v, u, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialExactness: for non-negative weights and any threshold, the
// one-row scan at cutoff thr either returns the full kernel's bits (the row
// survived) or +Inf while the true distance strictly exceeds the threshold
// (the row abandoned), on the scalar loop and on every SIMD tier the host
// has. thr == full must survive: pruning is strict.
func TestPartialExactness(t *testing.T) {
	tiers, _ := simdTiers()
	for _, tier := range append([]string{"scalar"}, tiers...) {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			n := 1 + r.Intn(70)
			v, u, w := randTriple(r, n, false)
			full := WeightedSqDistBlocked(v, u, w)
			// Thresholds spanning never-abandon, always-abandon and the
			// interesting middle, including thr == full (strictness check).
			thrs := []float64{math.Inf(1), full, full * 0.99, full * 0.5, full * 0.1, 0}
			for _, thr := range thrs {
				got := MinWeightedSqDistRows(v, w, u, thr, true)
				if math.IsInf(got, 1) {
					if !(full > thr) {
						t.Logf("%s: abandoned but full %v ≤ thr %v", tier, full, thr)
						return false
					}
				} else if got != full {
					t.Logf("%s: not abandoned but sum %v != full %v (thr %v)", tier, got, full, thr)
					return false
				}
			}
			if got := MinWeightedSqDistRows(v, w, u, full, true); got != full {
				t.Logf("%s: abandoned at thr == full", tier)
				return false
			}
			return true
		}
		withTier(tier, func() {
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMinRowsMatchesSingleVectorKernel: the row-scanning loop must carry the
// exact accumulation order of the single-vector loop — the bits of the
// returned minimum must equal a per-row WeightedSqDistBlocked reference min,
// for prunable and non-prunable weights, with and without cutoffs.
func TestMinRowsMatchesSingleVectorKernel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(40)
		nRows := r.Intn(6)
		rows := make([]float64, nRows*dim)
		for i := range rows {
			rows[i] = r.NormFloat64()
		}
		negWeights := r.Intn(3) == 0
		p, _, w := randTriple(r, dim, negWeights)
		prune := true
		for _, x := range w {
			if x < 0 {
				prune = false
			}
		}
		// Reference: min over rows of the full kernel.
		want := math.Inf(1)
		for r0 := 0; r0 < len(rows); r0 += dim {
			if d := WeightedSqDistBlocked(p, rows[r0:r0+dim], w); d < want {
				want = d
			}
		}
		// Unpruned and self-pruned scans must return the reference bits.
		if got := MinWeightedSqDistRows(p, w, rows, math.Inf(1), false); got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Logf("unpruned min %v != reference %v", got, want)
			return false
		}
		if got := MinWeightedSqDistRows(p, w, rows, math.Inf(1), prune); got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Logf("self-pruned min %v != reference %v", got, want)
			return false
		}
		if !prune || nRows == 0 {
			return true
		}
		// Under a cutoff: result ≤ cutoff must be exact; result > cutoff
		// need only stay > cutoff.
		for _, cutoff := range []float64{want, want * 1.5, want * 0.5, 0} {
			got := MinWeightedSqDistRows(p, w, rows, cutoff, true)
			if want <= cutoff {
				if got != want {
					t.Logf("cutoff %v: got %v want %v", cutoff, got, want)
					return false
				}
			} else if !(got > cutoff) {
				t.Logf("cutoff %v: got %v not above cutoff (true %v)", cutoff, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestMinRowsEdgeCases(t *testing.T) {
	if got := MinWeightedSqDistRows(nil, nil, nil, 0, true); !math.IsInf(got, 1) {
		t.Fatalf("empty point/rows = %v, want +Inf", got)
	}
	if got := MinWeightedSqDistRows([]float64{1}, []float64{1}, nil, 0, true); !math.IsInf(got, 1) {
		t.Fatalf("no rows = %v, want +Inf", got)
	}
	for _, fn := range []func(){
		func() { MinWeightedSqDistRows(nil, nil, []float64{1}, 0, true) },
		func() { MinWeightedSqDistRows([]float64{1, 2}, []float64{1, 2}, []float64{1, 2, 3}, 0, true) },
		func() { MinWeightedSqDistRows([]float64{1}, []float64{1, 2}, []float64{1}, 0, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid rows geometry did not panic")
				}
			}()
			fn()
		}()
	}
}

// A malformed argument panics before dispatch, on every tier the host has:
// past a short w the assembly would read on and return a decision.
func TestKernelDimMismatchPanics(t *testing.T) {
	run, missing := simdTiers()
	t.Log("tiers:", append([]string{"scalar"}, run...), missing)
	p8, w8 := make([]float64, 8), make([]float64, 8)
	for _, tier := range append([]string{"scalar"}, run...) {
		for i, fn := range []func(){
			func() { WeightedSqDistBlocked([]float64{1}, []float64{1, 2}, []float64{1}) },
			func() { WeightedSqDistBlocked([]float64{1}, []float64{1}, []float64{1, 2}) },
			func() { BoxBoundExceeds(p8, w8[:4], make([]float32, BoxStride*8), 1e9) },
			func() { BoxTileExceeds(p8, w8[:4], make([]float32, BoxTileStride*8), 1e9, 0) },
			func() { BoxTileExceeds(p8, w8, make([]float32, BoxTileStride*8-1), 1e9, 0) },
		} {
			withTier(tier, func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: input %d: dimension mismatch did not panic", tier, i)
					}
				}()
				fn()
			})
		}
	}
}

// A box, and a tile, over p's first four of eight dimensions is a prefix
// screen on every tier. Past it lies a box that would reject at any
// threshold: a tier that read on would see it, and one that indexed on
// would panic.
func TestBoxBoundShortBoxIsPrefix(t *testing.T) {
	p8, w8 := make([]float64, 8), make([]float64, 8)
	for i := range w8 {
		w8[i] = 1
	}
	boxes := make([]float32, BoxStride*8)
	for k := 0; k < len(boxes); k += BoxStride {
		boxes[k], boxes[k+1] = -1, 1
		if k >= BoxStride*4 {
			boxes[k], boxes[k+1] = 1e30, 1e30
		}
	}
	tile := make([]float32, BoxTileStride*8)
	for r := 0; r < TileRows; r++ {
		setBoxTileLane(tile, r, boxes)
	}
	run, _ := simdTiers()
	for _, tier := range append([]string{"scalar"}, run...) {
		withTier(tier, func() {
			if BoxBoundExceeds(p8, w8, boxes[:BoxStride*4], 1) {
				t.Errorf("%s: a four-dimension box screened past its end", tier)
			}
			if got := BoxTileExceeds(p8, w8, tile[:BoxTileStride*4], 1, 0); got != 0 {
				t.Errorf("%s: a four-dimension tile screened past its end: lanes %08b rejected", tier, got)
			}
		})
	}
}

func TestKernelEmptyAndZero(t *testing.T) {
	if got := WeightedSqDistBlocked(nil, nil, nil); got != 0 {
		t.Fatalf("empty kernel = %v", got)
	}
}

func BenchmarkWeightedSqDist100(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	v, u, w := randTriple(r, 100, false)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += WeightedSqDistBlocked(v, u, w)
	}
	_ = sink
}
