package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"milret/internal/feature"
	"milret/internal/gray"
	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/synth"
)

// benchDataset builds a deterministic paper-scale training set: nPos+nNeg
// bags of 40 instances × 100 dimensions.
func benchDataset(nPos, nNeg int) *mil.Dataset {
	r := rand.New(rand.NewSource(11))
	mk := func(id string) *mil.Bag {
		b := &mil.Bag{ID: id}
		for j := 0; j < 40; j++ {
			v := mat.NewVector(100)
			for k := range v {
				v[k] = r.NormFloat64()
			}
			b.Instances = append(b.Instances, v)
		}
		return b
	}
	ds := &mil.Dataset{}
	for i := 0; i < nPos; i++ {
		ds.Positive = append(ds.Positive, mk(fmt.Sprintf("p%d", i)))
	}
	for i := 0; i < nNeg; i++ {
		ds.Negative = append(ds.Negative, mk(fmt.Sprintf("n%d", i)))
	}
	return ds
}

// benchThetas returns two distinct feasible θ for the mode. The objective
// remembers the forward pass of the last θ it saw, so a benchmark that
// re-evaluates one fixed θ would time the gradient pass alone; alternating
// between two makes every iteration a full evaluation.
func benchThetas(ds *mil.Dataset, o *objective) [2]mat.Vector {
	var thetas [2]mat.Vector
	for i := range thetas {
		theta := mat.NewVector(o.thetaDim())
		copy(theta[:o.dim], ds.Positive[0].Instances[i])
		if o.mode != Identical {
			theta[o.dim:].Fill(1)
		}
		thetas[i] = theta
	}
	return thetas
}

// benchObjectiveEval measures one full objective+gradient evaluation — the
// innermost unit of training cost. The scratch buffers threaded through the
// objective must keep this at zero allocations per evaluation.
func benchObjectiveEval(b *testing.B, mode WeightMode) {
	b.Helper()
	ds := benchDataset(5, 5)
	o := newObjective(packExamples(ds), mode)
	thetas := benchThetas(ds, o)
	grad := mat.NewVector(o.thetaDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Eval(thetas[i&1], grad, math.Inf(1))
	}
}

func BenchmarkObjectiveEval(b *testing.B)            { benchObjectiveEval(b, Original) }
func BenchmarkObjectiveEvalIdentical(b *testing.B)   { benchObjectiveEval(b, Identical) }
func BenchmarkObjectiveEvalConstrained(b *testing.B) { benchObjectiveEval(b, SumConstraint) }

// BenchmarkObjectiveProbeThenGrad is the optimizers' real call pattern after
// an accepted line-search probe: a value-only evaluation, then value+gradient
// at the same θ, which reuses the probe's forward pass.
func BenchmarkObjectiveProbeThenGrad(b *testing.B) {
	ds := benchDataset(5, 5)
	o := newObjective(packExamples(ds), SumConstraint)
	thetas := benchThetas(ds, o)
	grad := mat.NewVector(o.thetaDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Eval(thetas[i&1], nil, math.Inf(1))
		o.Eval(thetas[i&1], grad, math.Inf(1))
	}
}

// BenchmarkTrainColdShape is one whole cache-miss training in the shape the
// server runs it: 3 positive + 2 negative bags of 40 × 100, server-default
// constrained weights (β = 0), a start from every positive instance.
func BenchmarkTrainColdShape(b *testing.B) {
	ds := benchDataset(3, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(ds, Config{Mode: SumConstraint}); err != nil {
			b.Fatal(err)
		}
	}
}

// sceneExampleSets returns what the benchmark's cold_feedback workload
// trains on: featurized synth scenes, three positives of one category and
// two negatives from others per set, one set per (category, held-out
// scene) pair.
func sceneExampleSets(b *testing.B) []*mil.Dataset {
	const perCat = 4
	items := synth.ScenesN(7, perCat) // category-major
	bags := make([]*mil.Bag, len(items))
	for i, it := range items {
		bag, err := feature.BagFromImage(it.ID, gray.FromImage(it.Image), feature.Options{})
		if err != nil {
			b.Fatal(err)
		}
		bags[i] = bag
	}
	nCat := len(items) / perCat
	sets := make([]*mil.Dataset, nCat*perCat)
	for i := range sets {
		cat, skip := i%nCat, i/nCat%perCat
		ds := &mil.Dataset{}
		for j := 0; j < perCat; j++ {
			if j != skip {
				ds.Positive = append(ds.Positive, bags[cat*perCat+j])
			}
		}
		for _, other := range []int{cat + 1, cat + 2} {
			ds.Negative = append(ds.Negative, bags[other%nCat*perCat+skip])
		}
		sets[i] = ds
	}
	return sets
}

// BenchmarkTrainColdScenes is BenchmarkTrainColdShape on what the benchmark's
// cold_feedback workload bills: featurized synth scenes instead of Gaussian
// bags, server defaults, and a different example set every iteration (in
// rotation), because how many probes a training abandons, and how early,
// depends on the set.
func BenchmarkTrainColdScenes(b *testing.B) {
	sets := sceneExampleSets(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(sets[i%len(sets)], Config{Mode: SumConstraint}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObjectiveEvalScenes is one objective+gradient evaluation on
// BenchmarkTrainColdScenes' example sets, in rotation, at the server's
// constrained weights, alternating two θ per set: a start (the first
// positive instance, unit weights) and the set's trained concept. It is the
// per-evaluation figure for the regime the service runs: about 5 % of its
// positive-bag terms take the logTiny branch, as in a served training
// (4.6 %), where on benchDataset's Gaussian bags 80 % do. Zero allocations
// per evaluation, like the others.
func BenchmarkObjectiveEvalScenes(b *testing.B) {
	sets := sceneExampleSets(b)
	objs := make([]*objective, len(sets))
	thetas := make([][2]mat.Vector, len(sets))
	for i, ds := range sets {
		objs[i] = newObjective(packExamples(ds), SumConstraint)
		thetas[i] = benchThetas(ds, objs[i])
		c, err := Train(ds, Config{Mode: SumConstraint})
		if err != nil {
			b.Fatal(err)
		}
		copy(thetas[i][1], c.Point)
		copy(thetas[i][1][len(c.Point):], c.Weights)
	}
	grad := mat.NewVector(objs[0].thetaDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each objective alternates its two θ, so no pass is remembered.
		set := i % len(sets)
		objs[set].Eval(thetas[set][i/len(sets)&1], grad, math.Inf(1))
	}
}

// BenchmarkSingleInstanceEval is the EM-DD M-step counterpart.
func BenchmarkSingleInstanceEval(b *testing.B) {
	ds := benchDataset(5, 5)
	full := newObjective(packExamples(ds), Original)
	theta := benchThetas(ds, full)[0]
	sub := newSingleInstanceObjective(full.dim, len(ds.Positive), len(ds.Positive)+len(ds.Negative), Original)
	full.representatives(theta, sub)
	grad := mat.NewVector(full.thetaDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub.Eval(theta, grad, math.Inf(1))
	}
}
