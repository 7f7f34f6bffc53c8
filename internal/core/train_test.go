package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/optimize"
)

// plantedDataset reproduces the Figure 1-2 situation: positive bags each
// contain one instance near the target concept plus distractors; negative
// bags contain only distractors kept away from the target.
func plantedDataset(r *rand.Rand, target mat.Vector, nPos, nNeg, distractors int) *mil.Dataset {
	dim := len(target)
	randFar := func() mat.Vector {
		for {
			v := mat.NewVector(dim)
			for k := range v {
				v[k] = r.NormFloat64() * 4
			}
			if math.Sqrt(mat.WeightedSqDist(v, target, mat.NewVector(len(v)).Fill(1))) > 2.5 {
				return v
			}
		}
	}
	ds := &mil.Dataset{}
	for i := 0; i < nPos; i++ {
		b := &mil.Bag{ID: "p"}
		near := target.Clone()
		for k := range near {
			near[k] += r.NormFloat64() * 0.1
		}
		b.Instances = append(b.Instances, near)
		for j := 0; j < distractors; j++ {
			b.Instances = append(b.Instances, randFar())
		}
		ds.Positive = append(ds.Positive, b)
	}
	for i := 0; i < nNeg; i++ {
		b := &mil.Bag{ID: "n"}
		for j := 0; j < distractors+1; j++ {
			b.Instances = append(b.Instances, randFar())
		}
		ds.Negative = append(ds.Negative, b)
	}
	return ds
}

func TestTrainRecoversPlantedConceptAllModes(t *testing.T) {
	target := mat.Vector{2, -1}
	for _, mode := range []WeightMode{Original, Identical, SumConstraint} {
		r := rand.New(rand.NewSource(42))
		ds := plantedDataset(r, target, 5, 3, 4)
		cfg := Config{Mode: mode, Beta: 0.5, Parallelism: 2}
		c, err := Train(ds, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if d := math.Sqrt(mat.WeightedSqDist(c.Point, target, mat.NewVector(len(c.Point)).Fill(1))); d > 0.5 {
			t.Errorf("%v: concept %v is %.3f away from planted target %v", mode, c.Point, d, target)
		}
		if c.Mode != mode {
			t.Errorf("%v: concept mode mislabelled as %v", mode, c.Mode)
		}
		if !c.Point.IsFinite() || !c.Weights.IsFinite() {
			t.Errorf("%v: non-finite concept", mode)
		}
	}
}

func TestTrainIdenticalWeightsAllOnes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ds := plantedDataset(r, mat.Vector{0, 0, 0}, 3, 2, 2)
	c, err := Train(ds, Config{Mode: Identical})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Weights {
		if w != 1 {
			t.Fatalf("identical mode weight != 1: %v", c.Weights)
		}
	}
}

func TestTrainSumConstraintFeasible(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ds := plantedDataset(r, mat.Vector{1, 1, -1, 0}, 4, 3, 3)
	beta := 0.5
	c, err := Train(ds, Config{Mode: SumConstraint, Beta: beta})
	if err != nil {
		t.Fatal(err)
	}
	dim := float64(len(c.Weights))
	if sum := c.Weights.Sum(); sum < beta*dim-1e-6 {
		t.Fatalf("Σw = %v violates constraint %v", sum, beta*dim)
	}
	for _, w := range c.Weights {
		if w < -1e-9 || w > 1+1e-9 {
			t.Fatalf("weight %v outside [0,1]", w)
		}
	}
}

func TestTrainSumConstraintBetaOneForcesOnes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ds := plantedDataset(r, mat.Vector{1, -1}, 3, 2, 2)
	c, err := Train(ds, Config{Mode: SumConstraint, Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Weights {
		if math.Abs(w-1) > 1e-9 {
			t.Fatalf("β=1 must force weights to one, got %v", c.Weights)
		}
	}
}

func TestTrainSumConstraintInvalidBeta(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	ds := plantedDataset(r, mat.Vector{1, -1}, 2, 1, 1)
	if _, err := Train(ds, Config{Mode: SumConstraint, Beta: 1.5}); err == nil {
		t.Fatalf("β > 1 (infeasible) accepted")
	}
	if _, err := Train(ds, Config{Mode: SumConstraint, Beta: -0.5}); err == nil {
		t.Fatalf("negative β accepted")
	}
}

// Both trainers validate a configuration through the one validate: what one
// refuses the other refuses, with the same error, and what one accepts the
// other trains. (TrainEMDD used to carry its own copy of the check, without
// the negative-β half: it trained at β = −1.)
func TestTrainersRefuseTheSameConfigs(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	ds := plantedDataset(r, mat.Vector{1, -1}, 2, 1, 1)
	short := optimize.Options{MaxIter: 5}
	for _, tc := range []struct {
		cfg    Config
		refuse bool
	}{
		{Config{Mode: SumConstraint, Beta: -1}, true},
		{Config{Mode: SumConstraint, Beta: -1e-9}, true},
		{Config{Mode: SumConstraint, Beta: 1.5}, true},
		{Config{Mode: SumConstraint, Beta: 1}, false},
		{Config{Mode: SumConstraint}, false},
		{Config{Mode: Original, Beta: -1}, false}, // β is ignored outside SumConstraint
	} {
		tc.cfg.Opt = short
		_, errDD := Train(ds, tc.cfg)
		_, errEM := TrainEMDD(ds, tc.cfg)
		if (errDD != nil) != tc.refuse || (errEM != nil) != tc.refuse {
			t.Errorf("%+v: Train err %v, TrainEMDD err %v, want refused = %v", tc.cfg, errDD, errEM, tc.refuse)
		} else if tc.refuse && errDD.Error() != errEM.Error() {
			t.Errorf("%+v: Train says %q, TrainEMDD says %q", tc.cfg, errDD, errEM)
		}
	}
}

// §3.6: with few negative examples the original DD drives most weights
// toward zero, while the sum constraint keeps at least β·n of total weight.
func TestOriginalOverfitsWeightsSumConstraintDoesNot(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dim := 8
	target := mat.NewVector(dim)
	for k := range target {
		target[k] = r.NormFloat64()
	}
	ds := plantedDataset(r, target, 4, 0, 5) // no negatives at all
	orig, err := Train(ds, Config{Mode: Original})
	if err != nil {
		t.Fatal(err)
	}
	con, err := Train(ds, Config{Mode: SumConstraint, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if orig.Weights.Sum() >= con.Weights.Sum() {
		t.Fatalf("original DD weight mass (%v) should collapse below constrained (%v)",
			orig.Weights.Sum(), con.Weights.Sum())
	}
}

func TestTrainStartBagsSubsetNoBetterThanAll(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ds := plantedDataset(r, mat.Vector{1, 2}, 5, 2, 3)
	all, err := Train(ds, Config{Mode: Identical})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Train(ds, Config{Mode: Identical, StartBags: 2})
	if err != nil {
		t.Fatal(err)
	}
	if all.NegLogDD > sub.NegLogDD+1e-9 {
		t.Fatalf("more starts cannot give a worse optimum: all=%v subset=%v", all.NegLogDD, sub.NegLogDD)
	}
	if sub.Starts >= all.Starts {
		t.Fatalf("subset should use fewer starts: %d vs %d", sub.Starts, all.Starts)
	}
}

func TestTrainDeterministic(t *testing.T) {
	mk := func() *Concept {
		r := rand.New(rand.NewSource(13))
		ds := plantedDataset(r, mat.Vector{0.5, -0.5}, 4, 2, 3)
		c, err := Train(ds, Config{Mode: Original, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	if !slices.Equal(a.Point, b.Point) || !slices.Equal(a.Weights, b.Weights) {
		t.Fatalf("training is not deterministic")
	}
	if a.NegLogDD != b.NegLogDD {
		t.Fatalf("objective differs across identical runs")
	}
}

func TestTrainInvalidDataset(t *testing.T) {
	if _, err := Train(&mil.Dataset{}, Config{}); err == nil {
		t.Fatalf("empty dataset accepted")
	}
}

// The bag distance is the minimum over instances of the weighted distance:
// BestInstance's minimum carries the flat row scan's bits, ties keep the
// earliest instance, an empty bag is (+Inf, −1), and nothing is allocated.
func TestConceptBagDistMinOverInstances(t *testing.T) {
	c := &Concept{Point: mat.Vector{0, 0}, Weights: mat.NewVector(2).Fill(1)}
	b := &mil.Bag{ID: "b", Instances: []mat.Vector{{3, 4}, {1, 0}, {5, 5}}}
	if got, at := c.BestInstance(b); got != 1 || at != 1 {
		t.Fatalf("BestInstance = %v at %d, want 1 at 1 (min over instances)", got, at)
	}
	c.Weights = mat.Vector{1, 0}
	b.Instances = []mat.Vector{{3, 100}}
	if got, _ := c.BestInstance(b); got != 9 {
		t.Fatalf("weighted dist = %v, want 9", got)
	}
	if got, at := c.BestInstance(&mil.Bag{ID: "empty"}); !math.IsInf(got, 1) || at != -1 {
		t.Fatalf("empty bag = (%v, %d), want (+Inf, -1)", got, at)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.BestInstance(b) }); allocs != 0 {
		t.Fatalf("BestInstance allocates %.0f per call", allocs)
	}

	// Random bags, negative weights and exact ties included: the minimum
	// carries the bits of the flat row scan's, and the index is the
	// earliest instance at that distance.
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 400; iter++ {
		dim, n := 1+r.Intn(40), 1+r.Intn(6)
		rows := make([]float64, n*dim)
		for i := range rows {
			rows[i] = r.NormFloat64()
		}
		if n >= 2 && r.Intn(2) == 0 {
			copy(rows[(n-1)*dim:], rows[:dim]) // an exact distance tie
		}
		c := &Concept{Point: mat.NewVector(dim), Weights: mat.NewVector(dim)}
		prune := true
		for k := range c.Point {
			c.Point[k] = r.NormFloat64()
			c.Weights[k] = 2 * r.Float64()
			if r.Intn(8) == 0 {
				c.Weights[k], prune = -c.Weights[k], false
			}
		}
		b := &mil.Bag{ID: "b"}
		for i := 0; i < n; i++ {
			b.Instances = append(b.Instances, mat.Vector(rows[i*dim:(i+1)*dim]))
		}
		got, at := c.BestInstance(b)
		if want := mat.MinWeightedSqDistRows(c.Point, c.Weights, rows, math.Inf(1), prune); got != want {
			t.Fatalf("iter %d: BestInstance %v != row scan %v (prune %v)", iter, got, want, prune)
		}
		wantAt := slices.IndexFunc(b.Instances, func(x mat.Vector) bool {
			return mat.WeightedSqDistBlocked(c.Point, x, c.Weights) == got
		})
		if at != wantAt {
			t.Fatalf("iter %d: BestInstance index %d, want the earliest minimum %d", iter, at, wantAt)
		}
	}
}

func TestNegLogDDAtMatchesTraining(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	ds := plantedDataset(r, mat.Vector{1, 1}, 3, 2, 2)
	c, err := Train(ds, Config{Mode: Identical})
	if err != nil {
		t.Fatal(err)
	}
	f := NegLogDDAt(ds, c.Point, c.Weights)
	if math.Abs(f-c.NegLogDD) > 1e-9 {
		t.Fatalf("NegLogDDAt = %v, training reported %v", f, c.NegLogDD)
	}
}

func TestWeightModeString(t *testing.T) {
	for m, want := range map[WeightMode]string{
		Original:       "original",
		Identical:      "identical",
		WeightMode(2):  "unknown",
		SumConstraint:  "sum-constraint",
		WeightMode(99): "unknown",
	} {
		if m.String() != want {
			t.Errorf("WeightMode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

// TestTrainerStartsCountsCappedStarts: the process-cumulative start counters
// advance by one per optimization start, and a start that runs out of
// iterations counts as capped while one that meets its tolerance counts as
// neither capped nor pruned. (Pruned starts: TestRaceAccounting.)
func TestTrainerStartsCountsCappedStarts(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ds := randDataset(r, 5, 2, 1, 3)
	run := func(opt optimize.Options) TrainStats {
		st := statsDelta(func() {
			if _, err := exhaustive(ds, Config{Mode: SumConstraint, Opt: opt, Parallelism: 1}); err != nil {
				t.Fatal(err)
			}
		})
		st.Evals = 0
		return st
	}
	if got, want := run(optimize.Options{MaxIter: 1}), (TrainStats{Starts: 6, StartsCapped: 6}); got != want {
		t.Fatalf("MaxIter 1: %+v, want %+v", got, want)
	}
	if got, want := run(optimize.Options{MaxIter: 5000, StepTol: 1e-3}), (TrainStats{Starts: 6}); got != want {
		t.Fatalf("loose tolerance: %+v, want %+v", got, want)
	}
}
