package optimize

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"milret/internal/mat"
)

// projectBisection is BoxSum.Project as it stood before the bracket: every
// bisection midpoint decided by a fresh serial sum. It is the oracle the
// bracketed loop must reproduce bit for bit, kept verbatim apart from the
// receiver turned into a parameter.
func projectBisection(c BoxSum, x mat.Vector) {
	n := len(x)
	if err := c.Validate(n); err != nil {
		panic(err)
	}
	clip := func(v float64) float64 {
		if v < c.Lo {
			return c.Lo
		}
		if v > c.Hi {
			return c.Hi
		}
		return v
	}
	if c.Lo >= 0 && c.MinSum <= 0 {
		// The sum constraint cannot bind (core's β = 0): every clipped
		// coordinate is ≥ Lo ≥ 0 and a floating-point sum of non-negative
		// terms is non-negative, so step 1's test sum ≥ MinSum passes
		// whatever x holds and its result — each coordinate clipped, the
		// same floats — needs no sum first. (A NaN coordinate is the one
		// exception: it used to fail that test and send the rest through a
		// bisection that moved them by a rounding-sized λ. The objective is
		// NaN at such a point and every line search discards it.)
		for i, v := range x {
			x[i] = clip(v)
		}
		return
	}
	var sum float64
	minX := math.Inf(1)
	for _, v := range x {
		sum += clip(v)
		if v < minX {
			minX = v
		}
	}
	if sum >= c.MinSum {
		for i, v := range x {
			x[i] = clip(v)
		}
		return
	}
	// The sum constraint is active; the KKT solution shifts the ORIGINAL
	// coordinates by a common multiplier before clipping:
	// z_i = clip(x_i + λ). Bisect on λ ∈ [0, Hi − min_i x_i]; at the upper
	// bound every coordinate reaches Hi, where Σ = n·Hi ≥ MinSum by
	// Validate, and Σz(λ) is continuous and non-decreasing.
	sumAt := func(lambda float64) float64 {
		var s float64
		for _, v := range x {
			s += clip(v + lambda)
		}
		return s
	}
	lo, hi := 0.0, c.Hi-minX
	for iter := 0; iter < 200 && hi-lo > 1e-14*(1+math.Abs(hi)); iter++ {
		mid := (lo + hi) / 2
		if sumAt(mid) < c.MinSum {
			lo = mid
		} else {
			hi = mid
		}
	}
	lambda := hi
	for i, v := range x {
		x[i] = clip(v + lambda)
	}
}

// checkProjectMatches projects a copy of x both ways and fails on the first
// output whose bits differ.
func checkProjectMatches(t *testing.T, c BoxSum, x mat.Vector) {
	t.Helper()
	got, want := x.Clone(), x.Clone()
	c.Project(got)
	projectBisection(c, want)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("box [%v, %v] MinSum %v (%#x), n=%d: output %d is %v (%#x), bisection gives %v (%#x)\nx=%v",
				c.Lo, c.Hi, c.MinSum, math.Float64bits(c.MinSum), len(x), i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), x)
		}
	}
}

// serialClippedSum is the projection's S(λ): Σ clip(x_i + λ) in index order.
func serialClippedSum(c BoxSum, x mat.Vector, lambda float64) float64 {
	var s float64
	for _, v := range x {
		v += lambda
		if v < c.Lo {
			v = c.Lo
		}
		if v > c.Hi {
			v = c.Hi
		}
		s += v
	}
	return s
}

// projectBoxes are the boxes the cases draw from: the trainer's [0, 1],
// boxes below and across zero, a subnormal box and a huge one.
var projectBoxes = [][2]float64{
	{0, 1}, {0, 1}, {0, 1}, {-2, 3}, {-1, -0.5}, {-0.25, 0},
	{0, 0x1p-1070}, {0, 1e300}, {-1e300, 1e300}, {0.5, 0.5},
}

// projectCoordinate draws one coordinate for box [lo, hi]: mostly inside or
// near it, with ties at the faces, signed zeros, subnormals and huge
// magnitudes mixed in.
func projectCoordinate(r *rand.Rand, lo, hi float64) float64 {
	switch r.Intn(12) {
	case 0:
		return lo
	case 1:
		return hi
	case 2:
		return math.Copysign(0, float64(r.Intn(2)*2-1))
	case 3:
		return float64(r.Intn(9)-4) * 0x1p-1074
	case 4:
		return r.NormFloat64() * 1e300
	case 5:
		return float64(r.Intn(33)) / 16 // a dyadic grid: roots on midpoints
	}
	w := hi - lo
	if math.IsInf(w, 0) || w == 0 {
		w = 1
	}
	return lo + (r.Float64()*1.6-0.3)*w
}

// projectCase draws a box, a point and a MinSum whose constraint is active
// (or, in a few cases, MinSum exactly n·Hi or just above the clipped sum).
func projectCase(r *rand.Rand) (BoxSum, mat.Vector) {
	n := 1 + r.Intn(130)
	bx := projectBoxes[r.Intn(len(projectBoxes))]
	c := BoxSum{Lo: bx[0], Hi: bx[1]}
	x := mat.NewVector(n)
	for i := range x {
		x[i] = projectCoordinate(r, c.Lo, c.Hi)
	}
	if r.Intn(20) == 0 {
		x[r.Intn(n)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
	}
	clipped := serialClippedSum(c, x, 0)
	top := c.Hi * float64(n)
	switch r.Intn(5) {
	case 0:
		c.MinSum = math.Nextafter(clipped, math.Inf(1))
	case 1:
		c.MinSum = top
	case 2:
		// The root on a breakpoint: the λ at which coordinate j meets a face.
		j := r.Intn(n)
		face := c.Lo
		if r.Intn(2) == 0 {
			face = c.Hi
		}
		c.MinSum = serialClippedSum(c, x, face-x[j])
	case 3:
		// The root on a dyadic λ, where a bisection midpoint can land on it.
		c.MinSum = serialClippedSum(c, x, float64(r.Intn(1<<10))/(1<<10))
	default:
		c.MinSum = clipped + r.Float64()*(top-clipped)
	}
	if !(c.MinSum <= top) || math.IsNaN(c.MinSum) {
		c.MinSum = top
	}
	return c, x
}

// TestProjectMatchesBisection holds Project to the bisection it replaces:
// the same bits on every output, over boxes and points that exercise every
// face, tie and non-finite input the loop can meet.
func TestProjectMatchesBisection(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	active := 0
	for trial := 0; trial < 20000; trial++ {
		c, x := projectCase(r)
		if serialClippedSum(c, x, 0) < c.MinSum {
			active++
		}
		checkProjectMatches(t, c, x)
	}
	// Hand-made cases: a root on the first midpoint, a root at λ = 0's
	// neighbour, every coordinate tied at a face.
	checkProjectMatches(t, BoxSum{Lo: 0, Hi: 1, MinSum: 2}, mat.Vector{0, 0, 0, 0})
	checkProjectMatches(t, BoxSum{Lo: 0, Hi: 1, MinSum: 4}, mat.Vector{0, 0, 0, 0})
	checkProjectMatches(t, BoxSum{Lo: 0, Hi: 1, MinSum: 0x1p-1074}, mat.Vector{0, -0.0, 0})
	checkProjectMatches(t, BoxSum{Lo: 0, Hi: 1, MinSum: 1.5}, mat.Vector{1, 1, -0.0, -1})
	checkProjectMatches(t, BoxSum{Lo: -1, Hi: 0, MinSum: -0.5}, mat.Vector{-1, -1, -1})
	if active < 10000 {
		t.Fatalf("only %d of 20000 cases reached the bisection", active)
	}
}

// FuzzProjectVsBisection fuzzes the same equivalence from raw bytes: the
// coordinates are any float64 bit patterns, the box any ordered pair, and
// MinSum either raw or placed a fraction of the way from the clipped sum up
// to n·Hi, where the constraint is active.
func FuzzProjectVsBisection(f *testing.F) {
	f.Add(0.0, 1.0, 0.5, false, projectBytes(0.1, 0.9, 0.3, 0.7))
	f.Add(0.0, 1.0, 1.0, false, projectBytes(0, 0, 0, 0))
	f.Add(0.0, 1.0, 0.0, false, projectBytes(0.25, 0.5, 1, 1, -0.0, 2))
	f.Add(-2.0, 3.0, 0.3, false, projectBytes(-3, 4, math.Inf(1), 1e-310))
	f.Add(0.0, 1.0, 0.7, false, projectBytes(math.NaN(), 0.5, 0.5))
	f.Add(0.0, 1.0, 0.7, false, projectBytes(math.Inf(-1), 0.5, 0.25))
	f.Add(0.0, 1e300, 0.9, false, projectBytes(1e300, -1e300, 5e-324))
	f.Add(0.0, 1.0, 2.5, true, projectBytes(0.9, 0, 0.1, 0.4))
	f.Fuzz(func(t *testing.T, lo, hi, sumArg float64, raw bool, data []byte) {
		if !(lo <= hi) {
			return
		}
		x := make(mat.Vector, min(len(data)/8, 160))
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		c := BoxSum{Lo: lo, Hi: hi, MinSum: sumArg}
		if !raw {
			clipped, top := serialClippedSum(c, x, 0), hi*float64(len(x))
			c.MinSum = clipped + min(math.Abs(sumArg), 1)*(top-clipped)
		}
		if c.Validate(len(x)) != nil {
			return
		}
		checkProjectMatches(t, c, x)
	})
}

func projectBytes(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}
