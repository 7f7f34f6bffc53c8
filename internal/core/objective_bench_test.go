package core

import (
	"fmt"
	"math/rand"
	"testing"

	"milret/internal/mat"
	"milret/internal/mil"
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
	o := newObjective(packExamples(ds), mode, 50)
	thetas := benchThetas(ds, o)
	grad := mat.NewVector(o.thetaDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Eval(thetas[i&1], grad)
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
	o := newObjective(packExamples(ds), SumConstraint, 50)
	thetas := benchThetas(ds, o)
	grad := mat.NewVector(o.thetaDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Eval(thetas[i&1], nil)
		o.Eval(thetas[i&1], grad)
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

// BenchmarkSingleInstanceEval is the EM-DD M-step counterpart.
func BenchmarkSingleInstanceEval(b *testing.B) {
	ds := benchDataset(5, 5)
	full := newObjective(packExamples(ds), Original, 50)
	theta := benchThetas(ds, full)[0]
	sub := newSingleInstanceObjective(full.dim, len(ds.Positive), len(ds.Positive)+len(ds.Negative), Original, 50)
	full.representatives(theta, sub.rows)
	grad := mat.NewVector(full.thetaDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub.Eval(theta, grad)
	}
}
