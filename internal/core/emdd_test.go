package core

import (
	"math"
	"math/rand"
	"testing"

	"milret/internal/mat"
	"milret/internal/mil"
)

func TestEMDDRecoversPlantedConcept(t *testing.T) {
	target := mat.Vector{2, -1}
	for _, mode := range []WeightMode{Original, Identical, SumConstraint} {
		r := rand.New(rand.NewSource(42))
		ds := plantedDataset(r, target, 5, 3, 4)
		c, err := TrainEMDD(ds, Config{Mode: mode, Beta: 0.5, Parallelism: 2})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if d := math.Sqrt(mat.WeightedSqDist(c.Point, target, mat.NewVector(len(c.Point)).Fill(1))); d > 0.5 {
			t.Errorf("%v: EM-DD concept %v is %.3f from target", mode, c.Point, d)
		}
	}
}

func TestEMDDComparableObjectiveToTrain(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ds := plantedDataset(r, mat.Vector{1, 1, -1}, 4, 3, 3)
	dd, err := Train(ds, Config{Mode: Identical})
	if err != nil {
		t.Fatal(err)
	}
	em, err := TrainEMDD(ds, Config{Mode: Identical})
	if err != nil {
		t.Fatal(err)
	}
	// Both report the same noisy-or objective, so the values must be in the
	// same ballpark (EM-DD may be slightly worse — it optimizes a
	// surrogate).
	if em.NegLogDD > dd.NegLogDD*1.5+5 {
		t.Fatalf("EM-DD objective %v far above DD %v", em.NegLogDD, dd.NegLogDD)
	}
	if !em.Point.IsFinite() || !em.Weights.IsFinite() {
		t.Fatalf("non-finite EM-DD concept")
	}
}

func TestEMDDCheaperThanTrain(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ds := plantedDataset(r, mat.Vector{0.5, -0.5, 0.5, -0.5}, 5, 4, 8)
	cfg := Config{Mode: Identical}
	dd, err := Train(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	em, err := TrainEMDD(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The M-step objective touches one instance per bag instead of all of
	// them; per-eval cost is ~1/instances of the full objective. Eval
	// counts alone should already be in EM-DD's favor or comparable.
	if em.Evals > dd.Evals*3 {
		t.Fatalf("EM-DD used %d evals vs DD %d — no cheaper", em.Evals, dd.Evals)
	}
}

func TestEMDDValidation(t *testing.T) {
	if _, err := TrainEMDD(&mil.Dataset{}, Config{}); err == nil {
		t.Fatalf("empty dataset accepted")
	}
	r := rand.New(rand.NewSource(10))
	ds := plantedDataset(r, mat.Vector{1, 1}, 2, 1, 2)
	if _, err := TrainEMDD(ds, Config{Mode: SumConstraint, Beta: 2}); err == nil {
		t.Fatalf("infeasible beta accepted")
	}
}

func TestEMDDSumConstraintFeasible(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ds := plantedDataset(r, mat.Vector{1, -1, 0, 1}, 4, 2, 3)
	c, err := TrainEMDD(ds, Config{Mode: SumConstraint, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sum := c.Weights.Sum(); sum < 0.5*float64(len(c.Weights))-1e-6 {
		t.Fatalf("EM-DD violated sum constraint: %v", sum)
	}
}

func TestEMDDDeterministic(t *testing.T) {
	run := func() *Concept {
		r := rand.New(rand.NewSource(13))
		ds := plantedDataset(r, mat.Vector{0.5, -0.5}, 4, 2, 3)
		c, err := TrainEMDD(ds, Config{Mode: Original, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := run(), run()
	if !mat.Equal(a.Point, b.Point, 0) || a.NegLogDD != b.NegLogDD {
		t.Fatalf("EM-DD is not deterministic")
	}
}

// The single-instance M-step gradient must match finite differences.
func TestSingleInstanceObjectiveGradient(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, mode := range []WeightMode{Original, Identical, SumConstraint} {
		dim := 3
		o := newSingleInstanceObjective(dim, 3, 6, mode)
		for i := 0; i < 6; i++ {
			row := mat.NewVector(dim)
			for k := range row {
				row[k] = r.NormFloat64() * 0.7
			}
			o.setRow(i, row)
		}
		n := dim
		if mode != Identical {
			n = 2 * dim
		}
		theta := mat.NewVector(n)
		for i := range theta {
			theta[i] = r.NormFloat64() * 0.4
		}
		if mode != Identical {
			for i := dim; i < 2*dim; i++ {
				theta[i] = 0.5 + r.Float64()*0.4
			}
		}
		g := mat.NewVector(n)
		o.Eval(theta, g, math.Inf(1))
		const h = 1e-6
		for i := range theta {
			tp, tm := theta.Clone(), theta.Clone()
			tp[i] += h
			tm[i] -= h
			fd := (o.Eval(tp, nil, math.Inf(1)) - o.Eval(tm, nil, math.Inf(1))) / (2 * h)
			if math.Abs(fd-g[i]) > 1e-3*(1+math.Abs(fd)) {
				t.Fatalf("%v: M-step gradient mismatch at %d: %v vs %v", mode, i, g[i], fd)
			}
		}
	}
}
