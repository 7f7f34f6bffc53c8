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

// BenchmarkTrainColdScenes is BenchmarkTrainColdShape on what the benchmark's
// cold_feedback workload bills: featurized synth scenes instead of Gaussian
// bags — three positives of one category, two negatives from others, server
// defaults — and a different example set every iteration (twenty of them, in
// rotation), because how many probes a training abandons, and how early,
// depends on the set.
func BenchmarkTrainColdScenes(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
		if _, err := Train(ds, Config{Mode: SumConstraint}); err != nil {
			b.Fatal(err)
		}
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
