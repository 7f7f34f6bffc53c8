package gray

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"milret/internal/mat"
)

func TestCorrPerfect(t *testing.T) {
	a := &mat.Matrix{Rows: 2, Cols: 2, Data: mat.Vector{1, 2, 3, 4}}
	if got := Corr(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Corr(a,a) = %v, want 1", got)
	}
}

func TestCorrInverse(t *testing.T) {
	a := &mat.Matrix{Rows: 2, Cols: 2, Data: mat.Vector{1, 2, 3, 4}}
	b := &mat.Matrix{Rows: 2, Cols: 2, Data: mat.Vector{-1, -2, -3, -4}}
	if got := Corr(a, b); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Corr(a,-a) = %v, want -1", got)
	}
}

func TestCorrConstantSignal(t *testing.T) {
	a := &mat.Matrix{Rows: 2, Cols: 2, Data: mat.Vector{5, 5, 5, 5}}
	b := &mat.Matrix{Rows: 2, Cols: 2, Data: mat.Vector{1, 2, 3, 4}}
	if got := Corr(a, b); got != 0 {
		t.Fatalf("Corr(const, b) = %v, want 0", got)
	}
}

func TestCorrVecMismatchedLengths(t *testing.T) {
	if got := CorrVec(mat.Vector{1, 2}, mat.Vector{1}); got != 0 {
		t.Fatalf("mismatched lengths should give 0, got %v", got)
	}
}

func TestWeightedCorrOnesMatchesCorr(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := mat.NewMatrix(4, 4)
	b := mat.NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
		b.Data[i] = r.NormFloat64()
	}
	w := mat.NewVector(16).Fill(1)
	if got, want := WeightedCorrVec(a.Data, b.Data, w), Corr(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("WeightedCorrVec(ones) = %v, want %v", got, want)
	}
}

func TestWeightedCorrHandComputed(t *testing.T) {
	// §3.3 formula with unweighted means and weighted covariance/variances,
	// checked against a hand computation. a = {0, 2}, b = {0, 4}, w = {1, 3}:
	// means 1 and 2; cov = 1·(−1)(−2) + 3·(1)(2) = 8;
	// va = 1·1 + 3·1 = 4; vb = 1·4 + 3·4 = 16; r = 8/√64 = 1.
	got := WeightedCorrVec(mat.Vector{0, 2}, mat.Vector{0, 4}, mat.Vector{1, 3})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("weighted corr = %v, want 1", got)
	}
	// Anticorrelated pair under the same weights.
	got = WeightedCorrVec(mat.Vector{0, 2}, mat.Vector{4, 0}, mat.Vector{1, 3})
	if math.Abs(got+1) > 1e-12 {
		t.Fatalf("weighted corr = %v, want -1", got)
	}
}

func TestWeightedCorrDownweightsNoisyDimension(t *testing.T) {
	// Signals agree on dims 0..2 and disagree violently on dim 3.
	// Down-weighting dim 3 must increase the measured similarity.
	a := mat.Vector{1, 2, 3, 50}
	b := mat.Vector{1, 2, 3, -50}
	heavy := WeightedCorrVec(a, b, mat.Vector{1, 1, 1, 1})
	light := WeightedCorrVec(a, b, mat.Vector{1, 1, 1, 0.01})
	if light <= heavy {
		t.Fatalf("down-weighting noisy dim should raise corr: %v <= %v", light, heavy)
	}
}

func TestWeightedCorrBadWeightLength(t *testing.T) {
	if got := WeightedCorrVec(mat.Vector{1, 2}, mat.Vector{3, 4}, mat.Vector{1}); got != 0 {
		t.Fatalf("bad weight length should give 0, got %v", got)
	}
}

// Property: correlation is within [-1, 1], symmetric, and invariant under
// positive affine transforms of either argument.
func TestQuickCorrProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		a, b := make(mat.Vector, n), make(mat.Vector, n)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		c := CorrVec(a, b)
		if c < -1 || c > 1 {
			return false
		}
		if math.Abs(c-CorrVec(b, a)) > 1e-12 {
			return false
		}
		scale := 0.5 + r.Float64()*3
		shift := r.NormFloat64() * 10
		a2 := a.Clone().Scale(scale)
		for i := range a2 {
			a2[i] += shift
		}
		return math.Abs(CorrVec(a2, b)-c) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: negating one argument negates the correlation.
func TestQuickCorrAntisymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		a, b := make(mat.Vector, n), make(mat.Vector, n)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		c := CorrVec(a, b)
		neg := b.Clone().Scale(-1)
		return math.Abs(CorrVec(a, neg)+c) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrSampledDifferentSizes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := randImage(r, 31, 17)
	b := randImage(r, 64, 48)
	c, err := CorrSampled(a, b, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c < -1 || c > 1 {
		t.Fatalf("CorrSampled out of range: %v", c)
	}
}

func TestCorrSampledSelfSimilarity(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	a := randImage(r, 40, 30)
	c, err := CorrSampled(a, a, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-1) > 1e-9 {
		t.Fatalf("CorrSampled(a,a) = %v, want 1", c)
	}
}

func TestCorrSampledErrorPropagation(t *testing.T) {
	if _, err := CorrSampled(New(0, 0), New(4, 4), 10); err == nil {
		t.Fatalf("expected error for empty first image")
	}
	if _, err := CorrSampled(New(4, 4), New(0, 0), 10); err == nil {
		t.Fatalf("expected error for empty second image")
	}
}
