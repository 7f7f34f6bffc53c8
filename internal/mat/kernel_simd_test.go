package mat

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
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

// withTier runs f with the named kernel tier selected, restoring the
// dispatch state afterwards. The tier must be one the host can run.
func withTier(tier string, f func()) {
	prev := Kernel()
	if err := SetKernel(tier); err != nil {
		panic(err)
	}
	defer SetKernel(prev)
	f()
}

// withKernel runs f on exactly the AVX2 tier or on the scalar loops.
func withKernel(avx2 bool, f func()) {
	if avx2 {
		withTier("avx2", f)
	} else {
		withTier("scalar", f)
	}
}

func needAVX2(t testing.TB) {
	t.Helper()
	if !kernelAVX2Available() {
		t.Skip("no AVX2 on this host (or purego build); nothing to differentiate")
	}
}

// simdTier is one assembly tier of the training kernels and whether this
// host and build can run it.
type simdTier struct {
	name string
	ok   bool
}

func allSIMDTiers() []simdTier {
	return []simdTier{{"avx2", kernelAVX2Available()}, {"avx512", kernelAVX512Available()}}
}

// simdTiers lists the assembly tiers that this host and build can run, and
// names the ones they cannot — what a three-way identity test did not cover.
func simdTiers() (run []string, missing string) {
	for _, tier := range allSIMDTiers() {
		if tier.ok {
			run = append(run, tier.name)
		} else {
			missing += " no " + tier.name + " on this host (or a purego build);"
		}
	}
	return run, missing
}

// eachSIMDTier runs f once per assembly tier as a subtest of that name; a
// tier the host lacks is a skipped subtest that says so.
func eachSIMDTier(t *testing.T, f func(t *testing.T, tier string)) {
	for _, tier := range allSIMDTiers() {
		t.Run(tier.name, func(t *testing.T) {
			if !tier.ok {
				t.Skipf("no %s on this host (or a purego build); nothing to differentiate", tier.name)
			}
			f(t, tier.name)
		})
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
	// The oracle's exact full sum and its neighbours: a row whose sum ties
	// the threshold must survive.
	s := weightedSqDistScalar(v, u, w)
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

	// The single-vector abandon rule is the row scan's: one row at cutoff
	// thr.
	var sOne, aOne float64
	withKernel(false, func() { sOne = MinWeightedSqDistRows(p, w, u, thr, true) })
	withKernel(true, func() { aOne = MinWeightedSqDistRows(p, w, u, thr, true) })
	if !eqBits(sOne, aOne) {
		t.Fatalf("one-row MinRows(thr=%v) diverged: scalar %x avx2 %x\np=%v\nu=%v\nw=%v",
			thr, math.Float64bits(sOne), math.Float64bits(aOne), p, u, w)
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
		vec := randKernelVec
		if iter%4 == 1 {
			// Ordinary values only: with the specials most sums are NaN or
			// ±Inf, which hide a change in the order of the adds.
			vec = func(rng *rand.Rand, dim int) []float64 {
				v := make([]float64, dim)
				for i := range v {
					v[i] = rng.NormFloat64()
				}
				return v
			}
		}
		p := vec(rng, dim)
		w := vec(rng, dim)
		if iter%3 == 0 {
			// Non-negative weights: the realistic scan case where pruning
			// is sound; magnitudes still varied.
			for i := range w {
				w[i] = math.Abs(w[i])
			}
		}
		vecs := make([]Vector, nVecs)
		for i := range vecs {
			vecs[i] = vec(rng, dim)
			if rng.Intn(4) == 0 {
				// Duplicate an earlier vector sometimes: a row that ties the
				// running minimum must be handled alike by both kernels.
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
			PackBagSketch(dim, rows, box)
		}
		// Thresholds on every block boundary of the scalar accumulation: a
		// prefix of whole blocks has no tail, so the unabandoned screen loop
		// on the prefix IS the exact partial sum the abandon check compares
		// against.
		thrs := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0}
		for k := KernelBlock; k <= dim; k += KernelBlock {
			s := boxBoundScalar(p[:k], w[:k], box[:BoxStride*k], math.Inf(1))
			thrs = append(thrs, s)
			if !math.IsNaN(s) && !math.IsInf(s, 0) {
				thrs = append(thrs, math.Nextafter(s, math.Inf(-1)), math.Nextafter(s, math.Inf(1)))
			}
		}
		full := boxBoundScalar(p, w, box, math.Inf(1))
		thrs = append(thrs, full)
		if !math.IsNaN(full) && !math.IsInf(full, 0) {
			thrs = append(thrs, math.Nextafter(full, math.Inf(-1)), math.Nextafter(full, math.Inf(1)))
		}
		// With non-negative weights and a non-NaN total the partial sums
		// only grow, so the screen abandons exactly when the full bound
		// exceeds thr.
		monotone := !math.IsNaN(full)
		for _, x := range w {
			monotone = monotone && x >= 0
		}
		for _, thr := range thrs {
			s := boxBoundScalar(p, w, box, thr) > thr
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
			if monotone && (full > thr) != sd {
				t.Fatalf("box bound %v > thr %v is %v, but BoxBoundExceeds says %v on both tiers\np=%v\nw=%v\nbox=%v",
					full, thr, full > thr, sd, p, w, box)
			}
		}
	}
}

// TestSketchSIMDBitIdentity drives PackBagSketch through both
// implementations and compares every box bit: dims 1–140
// (every dim%4 tail, boxes over the whole bag and over a prefix), one-row
// and multi-row bags, and planted columns where the compare-and-select
// order or the NaN widening shows — a NaN in the first and in the last
// row, +0 before −0 and −0 before +0, a column of only zeros, one of
// +Inf, one of −Inf, and one holding both (a NaN sum that is not widened).
func TestSketchSIMDBitIdentity(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(38))
	for dim := 1; dim <= 140; dim++ {
		for _, n := range []int{1, 2, 3, 10} {
			rows := make([]float64, n*dim)
			for i := range rows {
				switch rng.Intn(40) {
				case 0:
					rows[i] = math.NaN()
				case 1:
					rows[i] = math.Inf(1 - 2*rng.Intn(2))
				case 2:
					rows[i] = math.Copysign(0, float64(1-2*rng.Intn(2)))
				case 3:
					rows[i] = rng.NormFloat64() * 1e300
				case 4:
					rows[i] = rng.NormFloat64() * 1e-310
				default:
					rows[i] = rng.NormFloat64()
				}
			}
			col := func(k int, vals ...float64) {
				if k < dim {
					for r := 0; r < n; r++ {
						rows[r*dim+k] = vals[r%len(vals)]
					}
				}
			}
			negZero := math.Copysign(0, -1)
			inf := math.Inf(1)
			col(dim-1, 0.5, -2, 3)
			col(rng.Intn(dim), 0, negZero, 1)
			col(rng.Intn(dim), negZero, 0, 1)
			col(rng.Intn(dim), negZero, 0)
			col(rng.Intn(dim), inf, 1)
			col(rng.Intn(dim), -inf, 1)
			col(rng.Intn(dim), inf, -inf, 2)
			rows[rng.Intn(dim)] = math.NaN()
			rows[(n-1)*dim+rng.Intn(dim)] = math.NaN()
			for _, bd := range []int{dim, min(dim, 64), dim / 2} {
				var boxes [2][]float32 // scalar, avx2
				for i, avx2 := range []bool{false, true} {
					boxes[i] = make([]float32, BoxStride*bd)
					withKernel(avx2, func() { PackBagSketch(dim, rows, boxes[i]) })
				}
				for k := range boxes[0] {
					if math.Float32bits(boxes[0][k]) != math.Float32bits(boxes[1][k]) {
						t.Fatalf("dim %d, %d rows, %d box dims: box[%d] scalar %v (%#x) avx2 %v (%#x)\nrows=%v",
							dim, n, bd, k, boxes[0][k], math.Float32bits(boxes[0][k]),
							boxes[1][k], math.Float32bits(boxes[1][k]), rows)
					}
				}
			}
		}
	}
}

// TestKernelDispatchAPI covers SetKernel/Kernel and the env-style modes. Its
// log says which tiers this host ran, so a CI run records what it covered.
func TestKernelDispatchAPI(t *testing.T) {
	prev := Kernel()
	defer SetKernel(prev)
	run, missing := simdTiers()
	t.Logf("mat.Kernel() = %q; SIMD tiers exercised here: %v;%s", prev, run, missing)

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
	widest := "scalar"
	for _, tier := range allSIMDTiers() {
		err := SetKernel(tier.name)
		if tier.ok {
			if err != nil || Kernel() != tier.name {
				t.Fatalf("SetKernel(%s) on a host that has it: err=%v kernel=%q", tier.name, err, Kernel())
			}
			widest = tier.name
		} else if err == nil {
			t.Fatalf("SetKernel(%s) succeeded without support for it", tier.name)
		}
	}
	if kernelAVX512Available() && !kernelAVX2Available() {
		t.Fatal("AVX-512 reported without AVX2: the avx512 tier runs the scan kernels' AVX2 bodies")
	}
	if err := SetKernel("auto"); err != nil {
		t.Fatalf("SetKernel(auto): %v", err)
	}
	if Kernel() != widest {
		t.Fatalf("Kernel() = %q after auto, want the widest tier %q", Kernel(), widest)
	}
}

// TestKernelEnvNotHonouredIsReported: a MILRET_KERNEL value the process
// cannot honour — a name that is no tier, or a tier this host or build lacks
// — selects auto and says so, naming the value and the kernel running in its
// place; a value it can honour is applied without a word.
func TestKernelEnvNotHonouredIsReported(t *testing.T) {
	prev := Kernel()
	defer SetKernel(prev)
	if err := SetKernel("auto"); err != nil {
		t.Fatal(err)
	}
	auto := Kernel()

	cases := []struct {
		mode     string
		honoured bool
		want     string // kernel selected
	}{
		{"", true, auto},
		{"auto", true, auto},
		{"scalar", true, "scalar"},
		{"scaler", false, auto},
		{"AVX2", false, auto},
		{"avx2", kernelAVX2Available(), "avx2"},
		{"avx512", kernelAVX512Available(), "avx512"},
	}
	for _, tc := range cases {
		if !tc.honoured {
			tc.want = auto
		}
		// Start from a tier the case does not ask for, so a selection that
		// silently did nothing is seen.
		if err := SetKernel("scalar"); err != nil {
			t.Fatal(err)
		}
		if tc.want == "scalar" && auto != "scalar" {
			if err := SetKernel(auto); err != nil {
				t.Fatal(err)
			}
		}
		var warn strings.Builder
		initKernel(tc.mode, &warn)
		if Kernel() != tc.want {
			t.Errorf("MILRET_KERNEL=%q selected %q, want %q", tc.mode, Kernel(), tc.want)
		}
		msg := warn.String()
		if tc.honoured {
			if msg != "" {
				t.Errorf("MILRET_KERNEL=%q was honoured but reported: %q", tc.mode, msg)
			}
			continue
		}
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, strconv.Quote(tc.mode)) ||
			!strings.Contains(msg, "using the "+auto+" kernel") {
			t.Errorf("MILRET_KERNEL=%q not honoured; stderr must name the value and the %s kernel once, got %q", tc.mode, auto, msg)
		}
	}
}
