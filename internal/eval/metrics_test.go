package eval

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInterpolatedPrecisionMonotone(t *testing.T) {
	pr := []PRPoint{
		{Recall: 0.2, Precision: 0.5},
		{Recall: 0.4, Precision: 0.8}, // later but higher: interpolation keeps it
		{Recall: 0.9, Precision: 0.3},
	}
	if got := InterpolatedPrecision(pr, 0.1); got != 0.8 {
		t.Fatalf("interp@0.1 = %v, want 0.8 (max over recall ≥ 0.1)", got)
	}
	if got := InterpolatedPrecision(pr, 0.5); got != 0.3 {
		t.Fatalf("interp@0.5 = %v, want 0.3", got)
	}
	if got := InterpolatedPrecision(pr, 0.95); got != 0 {
		t.Fatalf("interp beyond max recall = %v, want 0", got)
	}
}

// Property: 11-point interpolated precision is non-increasing in recall.
func TestQuickElevenPointNonIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		labels := make([]string, n)
		for i := range labels {
			if r.Float64() < 0.3 {
				labels[i] = "t"
			} else {
				labels[i] = "o"
			}
		}
		pr := PrecisionRecall(res(labels...), "t")
		pts := ElevenPointPrecision(pr)
		for i := 1; i < len(pts); i++ {
			if pts[i] > pts[i-1]+1e-12 {
				return false
			}
		}
		return pts[0] <= 1 && pts[10] >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestElevenPointPerfectRanking(t *testing.T) {
	pr := PrecisionRecall(res("x", "x", "y", "y"), "x")
	pts := ElevenPointPrecision(pr)
	for i, p := range pts {
		if p != 1 {
			t.Fatalf("perfect ranking interp@%d = %v", i, p)
		}
	}
}

func TestInterpolatedAtLeastRaw(t *testing.T) {
	labels := []string{"y", "x", "y", "x", "x", "y"}
	pr := PrecisionRecall(res(labels...), "x")
	for _, p := range pr {
		if ip := InterpolatedPrecision(pr, p.Recall); ip < p.Precision-1e-12 {
			t.Fatalf("interpolated precision %v below raw %v at recall %v", ip, p.Precision, p.Recall)
		}
	}
}
