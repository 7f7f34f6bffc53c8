package mat

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumMean(t *testing.T) {
	v := Vector{1, 2, 3, 4}
	if got := v.Sum(); got != 10 {
		t.Fatalf("Sum = %v, want 10", got)
	}
	if got := v.Mean(); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestEmptyVectorStats(t *testing.T) {
	var v Vector
	if v.Mean() != 0 || v.Variance() != 0 || v.Std() != 0 {
		t.Fatalf("empty vector stats should be zero")
	}
	if v.MaxAbs() != 0 {
		t.Fatalf("empty MaxAbs should be 0")
	}
	if _, i := v.Min(); i != -1 {
		t.Fatalf("empty Min index should be -1")
	}
	if _, i := v.Max(); i != -1 {
		t.Fatalf("empty Max index should be -1")
	}
}

func TestVariancePopulationConvention(t *testing.T) {
	// Population variance of {1, 3} is ((1-2)^2 + (3-2)^2)/2 = 1.
	v := Vector{1, 3}
	if got := v.Variance(); got != 1 {
		t.Fatalf("Variance = %v, want 1 (1/n convention)", got)
	}
}

func TestDotNormOrthogonal(t *testing.T) {
	a := Vector{1, 0}
	b := Vector{0, 1}
	if a.Dot(b) != 0 {
		t.Fatalf("orthogonal dot != 0")
	}
	if got := (Vector{3, 4}).Dot(Vector{3, 4}); got != 25 {
		t.Fatalf("{3,4}·{3,4} = %v, want 25", got)
	}
}

func TestAddScaledScaleSub(t *testing.T) {
	v := Vector{1, 2}.Clone()
	v.AddScaled(2, Vector{10, 20})
	if !slices.Equal(v, Vector{21, 42}) {
		t.Fatalf("AddScaled = %v", v)
	}
	v.Scale(0.5)
	if !slices.Equal(v, Vector{10.5, 21}) {
		t.Fatalf("Scale = %v", v)
	}
	v.AddScaled(-1, Vector{0.5, 1})
	if !slices.Equal(v, Vector{10, 20}) {
		t.Fatalf("AddScaled(-1) = %v", v)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone shares storage")
	}
}

func TestStandardizeMeanZeroStdOne(t *testing.T) {
	v := Vector{3, 7, 1, 9, 4, 4}
	s := v.Standardize()
	if !almostEq(s.Mean(), 0, 1e-12) {
		t.Fatalf("standardized mean = %v, want 0", s.Mean())
	}
	if !almostEq(s.Std(), 1, 1e-12) {
		t.Fatalf("standardized std = %v, want 1", s.Std())
	}
}

func TestStandardizeConstantVector(t *testing.T) {
	s := Vector{5, 5, 5}.Standardize()
	if !slices.Equal(s, NewVector(3)) {
		t.Fatalf("constant vector should standardize to zero, got %v", s)
	}
}

// sqDist is the plain squared Euclidean distance: the kernel at unit weights.
func sqDist(v, u Vector) float64 { return WeightedSqDist(v, u, NewVector(len(v)).Fill(1)) }

func TestSqDistZeroAndSymmetry(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 0, 3}
	if sqDist(a, a) != 0 {
		t.Fatalf("sqDist(a,a) != 0")
	}
	if sqDist(a, b) != sqDist(b, a) {
		t.Fatalf("SqDist not symmetric")
	}
	if got := sqDist(a, b); got != 9+4 {
		t.Fatalf("SqDist = %v, want 13", got)
	}
}

func TestWeightedSqDistMatchesUnweighted(t *testing.T) {
	a := Vector{1, 2, 3, -1}
	b := Vector{0, 2, 5, 3}
	if got, want := WeightedSqDist(a, b, NewVector(4).Fill(1)), 1.0+0+4+16; got != want {
		t.Fatalf("WeightedSqDist(ones) = %v, want %v", got, want)
	}
	// Zero weight on a dimension removes its contribution entirely.
	w := Vector{0, 1, 1, 1}
	a2 := a.Clone()
	a2[0] = 1e9
	if got, want := WeightedSqDist(a2, b, w), WeightedSqDist(a, b, w); !almostEq(got, want, 1e-3) {
		t.Fatalf("zero-weighted dimension leaked into distance: %v vs %v", got, want)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on dimension mismatch")
		}
	}()
	_ = Vector{1}.Dot(Vector{1, 2})
}

func TestIsFinite(t *testing.T) {
	if !(Vector{1, 2, 3}).IsFinite() {
		t.Fatalf("finite vector reported non-finite")
	}
	if (Vector{1, math.NaN()}).IsFinite() {
		t.Fatalf("NaN not detected")
	}
	if (Vector{math.Inf(1)}).IsFinite() {
		t.Fatalf("Inf not detected")
	}
}

func TestMinMax(t *testing.T) {
	v := Vector{3, -1, 7, 7, -1}
	if got, at := v.Min(); got != -1 || at != 1 {
		t.Fatalf("Min = (%v,%d)", got, at)
	}
	if got, at := v.Max(); got != 7 || at != 2 {
		t.Fatalf("Max = (%v,%d)", got, at)
	}
}

func randVec(r *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		v[i] = r.NormFloat64() * 10
	}
	return v
}

// Property: standardization makes the §3.4 identity hold with unit weights:
// ||std(a) - std(b)||² = 2n - 2n·corr(a, b).
func TestQuickStandardizeCorrelationIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 3 + rr.Intn(32)
		a, b := randVec(rr, n), randVec(rr, n)
		if a.Std() == 0 || b.Std() == 0 {
			return true
		}
		sa, sb := a.Clone().Standardize(), b.Clone().Standardize()
		// corr(a,b) with the population convention.
		ma, mb := a.Mean(), b.Mean()
		var cov float64
		for i := range a {
			cov += (a[i] - ma) * (b[i] - mb)
		}
		corr := cov / float64(n) / (a.Std() * b.Std())
		lhs := sqDist(sa, sb)
		rhs := 2*float64(n) - 2*float64(n)*corr
		return almostEq(lhs, rhs, 1e-6*float64(n))
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for the Euclidean norm induced by sqDist.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(16)
		a, b, c := randVec(rr, n), randVec(rr, n), randVec(rr, n)
		ab := math.Sqrt(sqDist(a, b))
		bc := math.Sqrt(sqDist(b, c))
		ac := math.Sqrt(sqDist(a, c))
		return ac <= ab+bc+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: weighted squared distance is monotone in the weights.
func TestQuickWeightedDistMonotoneInWeights(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(16)
		a, b := randVec(rr, n), randVec(rr, n)
		w1 := NewVector(n)
		w2 := NewVector(n)
		for i := range w1 {
			w1[i] = rr.Float64()
			w2[i] = w1[i] + rr.Float64()
		}
		return WeightedSqDist(a, b, w1) <= WeightedSqDist(a, b, w2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
