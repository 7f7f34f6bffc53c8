package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The SIMD ≡ scalar bit-identity suite. Every public kernel entry point is
// driven through both implementations on the same inputs and the results
// compared bit for bit — the scalar loops are the oracle, per the package
// contract. The one allowed divergence is NaN payloads (see the package
// comment in kernel.go): a NaN result must be NaN on both paths, but its
// bits may differ, so comparisons use eqBits.

// eqBits reports result equivalence under the kernel contract: identical
// bits, or both NaN.
func eqBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// withKernel runs f with the SIMD kernel forced on or off, restoring the
// dispatch state afterwards.
func withKernel(avx2 bool, f func()) {
	prev := useAVX2.Load()
	useAVX2.Store(avx2)
	defer useAVX2.Store(prev)
	f()
}

func needAVX2(t testing.TB) {
	t.Helper()
	if !kernelAVX2Available() {
		t.Skip("no AVX2 on this host (or purego build); nothing to differentiate")
	}
}

// randKernelVec fills a vector with values drawn to stress the kernel:
// mostly ordinary magnitudes, a sprinkling of zeros, denormal-scale,
// huge-scale, and non-finite values.
func randKernelVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		switch rng.Intn(12) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Inf(1 - 2*rng.Intn(2))
		case 2:
			v[i] = math.NaN()
		case 3:
			v[i] = rng.NormFloat64() * 1e300
		case 4:
			v[i] = rng.NormFloat64() * 1e-300
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// kernelThresholds returns abandon thresholds that exercise every abandon
// point of the scalar kernel on (v,u,w): the exact partial sum at each
// block boundary (ties must survive — strict >), the next float64 below it
// (must abandon), ±Inf, NaN, and 0.
func kernelThresholds(v, u, w []float64) []float64 {
	thrs := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0}
	sum := 0.0
	i := 0
	for ; i+KernelBlock <= len(v); i += KernelBlock {
		for j := i; j < i+KernelBlock; j++ {
			// Not the kernel's fold order — irrelevant here, any value near
			// the real partial sums works; the exact boundary values below
			// come from the oracle itself.
			d := v[j] - u[j]
			sum += w[j] * d * d
		}
		thrs = append(thrs, sum)
	}
	// Exact oracle partial sums: run the scalar kernel with thr = each
	// candidate and collect returned sums too (abandoned sums are the
	// kernel's true block-boundary values).
	s, _ := weightedSqDistResume(v, u, w, 0, 0, math.Inf(1))
	thrs = append(thrs, s, math.Nextafter(s, math.Inf(-1)), math.Nextafter(s, math.Inf(1)))
	for _, t := range thrs {
		if !math.IsNaN(t) && !math.IsInf(t, 0) {
			thrs = append(thrs, math.Nextafter(t, math.Inf(-1)))
		}
		if len(thrs) > 64 {
			break
		}
	}
	return thrs
}

// compareAllEntryPoints drives every kernel entry point through both
// implementations on the given inputs and fails on any non-equivalent
// result. rows is len(vecs)*dim row-major; vecs the same data as slices.
func compareAllEntryPoints(t *testing.T, p, w []float64, vecs []Vector, thr, cutoff float64, prune bool) {
	t.Helper()
	dim := len(p)
	rows := make([]float64, 0, len(vecs)*dim)
	for _, v := range vecs {
		rows = append(rows, v...)
	}

	u := vecs[0]

	var sSum, aSum float64
	var sAb, aAb bool
	withKernel(false, func() { sSum, sAb = kernResume(p, u, w, 0, 0, thr) })
	withKernel(true, func() { aSum, aAb = kernResume(p, u, w, 0, 0, thr) })
	if !eqBits(sSum, aSum) || sAb != aAb {
		t.Fatalf("Partial(thr=%v) diverged: scalar (%x,%v) avx2 (%x,%v)\np=%v\nu=%v\nw=%v",
			thr, math.Float64bits(sSum), sAb, math.Float64bits(aSum), aAb, p, u, w)
	}

	var sFull, aFull float64
	withKernel(false, func() { sFull = WeightedSqDistBlocked(p, u, w) })
	withKernel(true, func() { aFull = WeightedSqDistBlocked(p, u, w) })
	if !eqBits(sFull, aFull) {
		t.Fatalf("Blocked diverged: scalar %x avx2 %x\np=%v\nu=%v\nw=%v",
			math.Float64bits(sFull), math.Float64bits(aFull), p, u, w)
	}

	var sMin, aMin float64
	withKernel(false, func() { sMin = MinWeightedSqDistRows(p, w, rows, cutoff, prune) })
	withKernel(true, func() { aMin = MinWeightedSqDistRows(p, w, rows, cutoff, prune) })
	if !eqBits(sMin, aMin) {
		t.Fatalf("MinRows(cutoff=%v,prune=%v) diverged: scalar %x avx2 %x\np=%v\nw=%v\nrows=%v",
			cutoff, prune, math.Float64bits(sMin), math.Float64bits(aMin), p, w, rows)
	}

	var sVMin, aVMin float64
	var sVI, aVI int
	withKernel(false, func() { sVMin, sVI = MinWeightedSqDistVecs(p, w, vecs, cutoff, prune) })
	withKernel(true, func() { aVMin, aVI = MinWeightedSqDistVecs(p, w, vecs, cutoff, prune) })
	if !eqBits(sVMin, aVMin) || sVI != aVI {
		t.Fatalf("MinVecs(cutoff=%v,prune=%v) diverged: scalar (%x,%d) avx2 (%x,%d)\np=%v\nw=%v\nvecs=%v",
			cutoff, prune, math.Float64bits(sVMin), sVI, math.Float64bits(aVMin), aVI, p, w, vecs)
	}
}

// TestKernelSIMDBitIdentity is the main property test: random dimensions
// (including every tail size), values including NaN/±Inf/denormals, abandon
// thresholds sitting exactly on block-boundary partial sums, pruned and
// unpruned row scans.
func TestKernelSIMDBitIdentity(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		dim := 1 + rng.Intn(21) // covers tails 1..3 and multi-block dims
		nVecs := 1 + rng.Intn(6)
		p := randKernelVec(rng, dim)
		w := randKernelVec(rng, dim)
		if iter%3 == 0 {
			// Non-negative weights: the realistic scan case where pruning
			// is sound; magnitudes still varied.
			for i := range w {
				w[i] = math.Abs(w[i])
			}
		}
		vecs := make([]Vector, nVecs)
		for i := range vecs {
			vecs[i] = randKernelVec(rng, dim)
			if rng.Intn(4) == 0 {
				// Duplicate an earlier vector sometimes: argmin tie-breaking
				// (earliest index wins) must agree between kernels.
				vecs[i] = append(Vector(nil), vecs[rng.Intn(i+1)]...)
			}
		}
		for _, thr := range kernelThresholds(p, vecs[0], w) {
			cutoff := thr
			compareAllEntryPoints(t, p, w, vecs, thr, cutoff, rng.Intn(2) == 0)
		}
	}
}

// TestKernelSIMDEmptyAndTiny pins the degenerate shapes around the
// dispatch guards: empty vectors never reach the assembly, dim < KernelBlock
// runs tail-only.
func TestKernelSIMDEmptyAndTiny(t *testing.T) {
	needAVX2(t)
	withKernel(true, func() {
		if got := WeightedSqDistBlocked(nil, nil, nil); got != 0 {
			t.Fatalf("empty Blocked = %v, want 0", got)
		}
		if got, ab := kernResume(nil, nil, nil, 0, 0, -1); got != 0 || ab {
			t.Fatalf("empty Partial = %v,%v, want 0,false", got, ab)
		}
		if got := MinWeightedSqDistRows(nil, nil, nil, 0, true); !math.IsInf(got, 1) {
			t.Fatalf("empty MinRows = %v, want +Inf", got)
		}
	})
	for dim := 1; dim <= 3; dim++ {
		rng := rand.New(rand.NewSource(int64(dim)))
		p, w := randKernelVec(rng, dim), randKernelVec(rng, dim)
		vecs := []Vector{randKernelVec(rng, dim), randKernelVec(rng, dim)}
		compareAllEntryPoints(t, p, w, vecs, 0.5, 0.5, true)
	}
}

// TestBoxBoundSIMDBitIdentity drives the box-bound screen through both
// implementations: random query geometry (NaN/±Inf/denormals included),
// boxes both packed from real instance rows and raw-random (NaN and
// inverted lo/hi included — the kernel's decision must agree on any bytes),
// and thresholds sitting exactly on the scalar oracle's block-boundary
// partial sums, where a one-ulp divergence would flip the strict-> abandon.
func TestBoxBoundSIMDBitIdentity(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 600; iter++ {
		dim := 1 + rng.Intn(21)
		p := randKernelVec(rng, dim)
		w := randKernelVec(rng, dim)
		if iter%3 != 0 {
			// The filter only arms on non-negative weights; keep most of the
			// coverage there, magnitudes still varied.
			for i := range w {
				w[i] = math.Abs(w[i])
			}
		}
		box := make([]float32, BoxStride*dim)
		rep := make([]float32, dim)
		if iter%4 == 0 {
			// Raw-random box: NaN bounds, inverted lo/hi, huge magnitudes.
			for i := range box {
				f := randKernelVec(rng, 1)[0]
				box[i] = float32(f)
			}
		} else {
			n := 1 + rng.Intn(4)
			rows := make([]float64, 0, n*dim)
			for r := 0; r < n; r++ {
				rows = append(rows, randKernelVec(rng, dim)...)
			}
			PackBagSketch(dim, rows, box, rep)
		}
		// Thresholds on every block boundary of the scalar accumulation: a
		// prefix of whole blocks has no tail, so BoxBound on the prefix IS
		// the exact partial sum the abandon check compares against.
		thrs := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0}
		for k := KernelBlock; k <= dim; k += KernelBlock {
			s := BoxBound(p[:k], w[:k], box[:BoxStride*k])
			thrs = append(thrs, s)
			if !math.IsNaN(s) && !math.IsInf(s, 0) {
				thrs = append(thrs, math.Nextafter(s, math.Inf(-1)), math.Nextafter(s, math.Inf(1)))
			}
		}
		full := BoxBound(p, w, box)
		thrs = append(thrs, full)
		if !math.IsNaN(full) && !math.IsInf(full, 0) {
			thrs = append(thrs, math.Nextafter(full, math.Inf(-1)), math.Nextafter(full, math.Inf(1)))
		}
		for _, thr := range thrs {
			s := boxBoundExceedsScalar(p, w, box, thr)
			a := boxBoundExceedsAVX2(&p[0], &w[0], &box[0], dim, thr)
			if s != a {
				t.Fatalf("BoxBoundExceeds(thr=%x) diverged: scalar %v avx2 %v\np=%v\nw=%v\nbox=%v",
					math.Float64bits(thr), s, a, p, w, box)
			}
			var sd, ad bool
			withKernel(false, func() { sd = BoxBoundExceeds(p, w, box, thr) })
			withKernel(true, func() { ad = BoxBoundExceeds(p, w, box, thr) })
			if sd != ad {
				t.Fatalf("dispatched BoxBoundExceeds(thr=%x) diverged: scalar %v avx2 %v",
					math.Float64bits(thr), sd, ad)
			}
		}
	}
}

// TestKernelDispatchAPI covers SetKernel/Kernel and the env-style modes.
func TestKernelDispatchAPI(t *testing.T) {
	prev := Kernel()
	defer SetKernel(prev)

	if err := SetKernel("scalar"); err != nil {
		t.Fatalf("SetKernel(scalar): %v", err)
	}
	if Kernel() != "scalar" {
		t.Fatalf("Kernel() = %q after forcing scalar", Kernel())
	}
	if err := SetKernel("bogus"); err == nil {
		t.Fatal("SetKernel(bogus) accepted")
	}
	if Kernel() != "scalar" {
		t.Fatalf("Kernel() = %q after rejected mode; must be unchanged", Kernel())
	}
	err := SetKernel("avx2")
	if kernelAVX2Available() {
		if err != nil || Kernel() != "avx2" {
			t.Fatalf("SetKernel(avx2) on AVX2 host: err=%v kernel=%q", err, Kernel())
		}
	} else if err == nil {
		t.Fatal("SetKernel(avx2) succeeded without AVX2 support")
	}
	if err := SetKernel("auto"); err != nil {
		t.Fatalf("SetKernel(auto): %v", err)
	}
	want := "scalar"
	if kernelAVX2Available() {
		want = "avx2"
	}
	if Kernel() != want {
		t.Fatalf("Kernel() = %q after auto, want %q", Kernel(), want)
	}
}
