package mat

import (
	"math"
	"math/rand"
	"testing"
)

// clipKernel is one projection pass as the tier harness drives it: run
// applies it to x (in place for the clip stores) and returns what it
// produced; exact says whether every tier must return the scalar loop's
// bits, where the order-free pass need only agree within rounding.
type clipKernel struct {
	name  string
	exact bool
	run   func(x []float64, shift, lo, hi float64) []float64
}

var clipKernels = []clipKernel{
	{"ClipSum", true, func(x []float64, shift, lo, hi float64) []float64 {
		sum, least := ClipSum(x, shift, lo, hi)
		return []float64{sum, least}
	}},
	{"ClipSumFree", false, func(x []float64, shift, lo, hi float64) []float64 {
		sum, free := ClipSumFree(x, shift, lo, hi)
		return []float64{sum, float64(free)}
	}},
	{"Clip", true, func(x []float64, _, lo, hi float64) []float64 {
		Clip(x, lo, hi)
		return x
	}},
	{"ClipShift", true, func(x []float64, shift, lo, hi float64) []float64 {
		ClipShift(x, shift, lo, hi)
		return x
	}},
}

// clipBoxes are the boxes the harness clips to: the trainer's [0, 1], boxes
// across and below zero, one of subnormal width, a point, both orders of
// the signed zeros, and one nearly as wide as the doubles.
var clipBoxes = [][2]float64{
	{0, 1}, {-2, 3}, {-0.25, 0}, {-1, -0.5}, {0, 0x1p-1070}, {0.5, 0.5},
	{math.Copysign(0, -1), 0}, {0, math.Copysign(0, -1)}, {-1e300, 1e300},
}

// clipInput draws n coordinates for box [lo, hi]: mostly inside or near it,
// with the faces, their neighbours, signed zeros, subnormals, infinities,
// NaN and huge magnitudes mixed in.
func clipInput(r *rand.Rand, n int, lo, hi float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch r.Intn(16) {
		case 0:
			x[i] = lo
		case 1:
			x[i] = hi
		case 2:
			x[i] = math.Nextafter([]float64{lo, hi}[r.Intn(2)], math.Inf(1-2*r.Intn(2)))
		case 3:
			x[i] = math.Copysign(0, float64(1-2*r.Intn(2)))
		case 4:
			x[i] = float64(r.Intn(9)-4) * 0x1p-1074
		case 5:
			x[i] = math.Inf(1 - 2*r.Intn(2))
		case 6:
			x[i] = math.NaN()
		case 7:
			x[i] = r.NormFloat64() * 1e300
		default:
			w := hi - lo
			if w == 0 || math.IsInf(w, 0) {
				w = 1
			}
			x[i] = lo + (r.Float64()*1.6-0.3)*w
		}
	}
	if r.Intn(4) == 0 {
		// Finite, NaN-free coordinates: the inputs whose free count and
		// order-free sum the harness also compares.
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				x[i] = lo
			}
		}
	}
	return x
}

// clipShifts returns the shifts to try on x: none (both zeros), small ones,
// ones that clip every finite coordinate to lo or to hi, the infinities and
// NaN.
func clipShifts(r *rand.Rand, x []float64, lo, hi float64) []float64 {
	far := hi - lo
	for _, v := range x {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			far = max(far, 2*math.Abs(v)+(hi-lo))
		}
	}
	return []float64{
		0, math.Copysign(0, -1), r.NormFloat64(), r.Float64() * (hi - lo),
		far, -far, math.Inf(1), math.Inf(-1), math.NaN(),
	}
}

// TestClipKernelTiers is the projection passes' tier harness: every SIMD
// tier against the scalar loops, kernel by kernel, over lengths 0–140 (every
// tail of a block of four and of eight), the boxes above and shifts that
// clip nothing, some or everything. Each call gets a subslice with guard
// elements on both sides, so a store outside [0, n) shows. Exact passes
// must return the scalar bits (or NaN for NaN); the order-free pass must
// agree on the free count and, within n roundings of the largest partial
// sum, on the sum, wherever x is finite.
func TestClipKernelTiers(t *testing.T) {
	needAVX2(t)
	eachSIMDTier(t, func(t *testing.T, tier string) {
		for _, k := range clipKernels {
			t.Run(k.name, func(t *testing.T) {
				r := rand.New(rand.NewSource(39))
				for n := 0; n <= 140; n++ {
					for _, box := range clipBoxes {
						lo, hi := box[0], box[1]
						x := clipInput(r, n, lo, hi)
						for _, shift := range clipShifts(r, x, lo, hi) {
							var want, got []float64
							withKernel(false, func() { want = runGuarded(t, k, x, shift, lo, hi) })
							withTier(tier, func() { got = runGuarded(t, k, x, shift, lo, hi) })
							if !clipAgree(k, x, shift, lo, hi, want, got) {
								t.Fatalf("n=%d box [%v, %v] shift %v: scalar %v, %s %v\nx=%v",
									n, lo, hi, shift, want, tier, got, x)
							}
						}
					}
				}
			})
		}
	})
}

// runGuarded runs k on a copy of x placed between two guard values and
// fails if k wrote either of them.
func runGuarded(t *testing.T, k clipKernel, x []float64, shift, lo, hi float64) []float64 {
	t.Helper()
	const guard = -12345.678
	buf := make([]float64, len(x)+2)
	buf[0], buf[len(buf)-1] = guard, guard
	copy(buf[1:], x)
	out := append([]float64(nil), k.run(buf[1:len(buf)-1], shift, lo, hi)...)
	if buf[0] != guard || buf[len(buf)-1] != guard {
		t.Fatalf("%s wrote outside its %d elements", k.name, len(x))
	}
	return out
}

// clipAgree reports whether a tier's result got matches the scalar want.
func clipAgree(k clipKernel, x []float64, shift, lo, hi float64, want, got []float64) bool {
	if k.exact {
		for i := range want {
			if !eqBits(want[i], got[i]) {
				return false
			}
		}
		return true
	}
	var bound float64 // Σ|clipped|: bounds every partial sum's magnitude
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(v+shift) {
			return true // only the exact passes have a contract here
		}
		bound += math.Abs(clip(v+shift, lo, hi))
	}
	if want[1] != got[1] {
		return false
	}
	if math.IsInf(bound, 0) || math.IsInf(want[0], 0) {
		return eqBits(want[0], got[0])
	}
	return math.Abs(want[0]-got[0]) <= float64(len(x))*0x1p-52*bound
}
