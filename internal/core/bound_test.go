package core

import (
	"math"
	"math/rand"
	"testing"

	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/optimize"
)

// startTrace is what one optimization start reports each time it is stopped:
// iterate, objective, iteration and evaluation counts, bit for bit.
type startTrace []uint64

func (tr *startTrace) record(res optimize.Result) {
	*tr = append(*tr, math.Float64bits(res.F), uint64(res.Iters), uint64(res.Evals))
	for _, v := range res.X {
		*tr = append(*tr, math.Float64bits(v))
	}
}

// traceStarts runs every start of a training to every barrier of the race's
// schedule and on to the cap — no start is dropped, so the starts the race
// would keep are among them — through one shared evaluator, as the starts of
// one worker share its objective, and returns each start's trace.
func traceStarts(ds *mil.Dataset, cfg Config, eval optimize.Func) []startTrace {
	cfg = cfg.withDefaults()
	dim := ds.Dim()
	stops := append(rungSchedule(cfg.Opt.MaxIter), cfg.Opt.MaxIter)
	theta := mat.NewVector(thetaDim(cfg.Mode, dim))
	var traces []startTrace
	for _, inst := range startInstances(ds, cfg.StartBags) {
		initTheta(theta, inst, dim)
		run := newStepper(cfg, dim, theta)
		var tr startTrace
		for _, upTo := range stops {
			run.Run(eval, upTo)
			tr.record(run.Result())
		}
		traces = append(traces, tr)
	}
	return traces
}

// audited is obj.Eval with the bound honoured, and an auditor beside it:
// after every probe that comes back above its bound, the point the probe ran
// at and the point of the last pass before it must both evaluate — value and
// gradient — as they do on ref, an objective that is never handed a bound.
// That is what "an abandoned pass leaves nothing remembered" means where it
// matters, in the middle of a training. The audit's own evaluations complete,
// so they disturb nothing but the memo, which decides no result.
func audited(t *testing.T, obj, ref *objective, abandoned *int) optimize.Func {
	last := mat.NewVector(obj.thetaDim())
	haveLast := false
	return func(theta, grad mat.Vector, bound float64) float64 {
		v := obj.Eval(theta, grad, bound)
		if grad == nil && v > bound {
			if full := ref.Eval(theta, nil, math.Inf(1)); math.Float64bits(full) != math.Float64bits(v) {
				*abandoned++
				if !(full > bound) && !math.IsNaN(full) {
					t.Fatalf("probe returned %v above its bound %v, but f = %v is not", v, bound, full)
				}
			}
			// The earlier point first: asking at theta would complete a pass
			// there and repair what this is looking for.
			points := []mat.Vector{theta}
			if haveLast {
				points = []mat.Vector{last, theta}
			}
			for _, at := range points {
				if got, want := evalBits(obj, at), evalBits(ref, at); !equalBits(got, want) {
					t.Fatalf("after a probe abandoned at bound %v, an evaluation differs from one on an objective that never abandons", bound)
				}
			}
		}
		copy(last, theta)
		haveLast = true
		return v
	}
}

// TestBoundedProbesChangeNothing: in every weight mode, on random and on
// featurized example sets, a training whose probes stop once they have lost
// takes every start through the iterates, objective values, iteration counts
// and evaluation counts — at every barrier and at the cap — of a training
// whose evaluator is never told the bound. Point, Weights and NegLogDD of the
// concept are the winning start's iterate and value, so they are covered with
// it. It fails if the steppers hand down a bound 1 % tighter than the value
// they accept, if the forward pass compares a positive bag's partial term with
// the bound, and if anything of an abandoned pass stays remembered.
func TestBoundedProbesChangeNothing(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	sets := []struct {
		name string
		ds   *mil.Dataset
	}{
		{"random", randDataset(r, 7, 3, 2, 5)},
		{"random, ragged bags", func() *mil.Dataset {
			ds := randDataset(r, 5, 2, 3, 11)
			ds.Positive[1].Instances = ds.Positive[1].Instances[:3]
			ds.Negative[0].Instances = ds.Negative[0].Instances[:9]
			return ds
		}()},
		{"scenes", sceneDataset(t)},
	}
	short := optimize.Options{MaxIter: 30}
	cfgs := []Config{
		{Mode: Original, StartBags: 1, Opt: short},
		{Mode: Identical, StartBags: 1, Opt: short},
		{Mode: SumConstraint, StartBags: 1, Opt: short},
		{Mode: SumConstraint, Beta: 0.5, StartBags: 1, Opt: short},
	}
	for _, set := range sets {
		ex := packExamples(set.ds)
		for _, cfg := range cfgs {
			unbounded := newObjective(ex, cfg.Mode)
			want := traceStarts(set.ds, cfg, func(theta, grad mat.Vector, _ float64) float64 {
				return unbounded.Eval(theta, grad, math.Inf(1))
			})
			abandoned := 0
			got := traceStarts(set.ds, cfg, audited(t, newObjective(ex, cfg.Mode), newObjective(ex, cfg.Mode), &abandoned))
			for i := range want {
				if !equalBits(got[i], want[i]) {
					t.Errorf("%s, %v β=%v: start %d differs between bounded and unbounded probes", set.name, cfg.Mode, cfg.Beta, i)
				}
			}
			if abandoned == 0 {
				t.Errorf("%s, %v β=%v: no probe was abandoned — the comparison covers nothing", set.name, cfg.Mode, cfg.Beta)
			}
		}
	}
}

// TestAbandonedPassLeavesNoMemo: a value-only pass that stops at its bound
// has overwritten part of the forward state, so neither the point it ran at
// nor the point remembered before it may be answered from memory afterwards.
func TestAbandonedPassLeavesNoMemo(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	ds := randDataset(r, 7, 3, 2, 5)
	ex := packExamples(ds)
	for _, mode := range []WeightMode{Original, Identical, SumConstraint} {
		mk := func() mat.Vector {
			theta := mat.NewVector(thetaDim(mode, ex.dim))
			for i := range theta {
				theta[i] = 0.2 + 0.6*r.Float64()
			}
			return theta
		}
		a, b := mk(), mk()
		o := newObjective(ex, mode)
		full := o.Eval(b, nil, math.Inf(1))
		o.Eval(a, nil, math.Inf(1)) // remembered: a

		// A bound below the first bag's term stops the pass after that bag.
		part := o.Eval(b, nil, 0)
		if !(part > 0) || !(part < full) {
			t.Fatalf("%v: a pass bounded by 0 returned %v; the whole sum is %v", mode, part, full)
		}
		if got := evalBits(o, b); !equalBits(got, evalBits(newObjective(ex, mode), b)) {
			t.Errorf("%v: the point of an abandoned pass was answered from what the pass left behind", mode)
		}
		o.Eval(a, nil, math.Inf(1))
		o.Eval(b, nil, 0)
		if got := evalBits(o, a); !equalBits(got, evalBits(newObjective(ex, mode), a)) {
			t.Errorf("%v: the point remembered before an abandoned pass was answered from a state the pass had overwritten", mode)
		}
		// A bound the sum never exceeds changes nothing: the pass completes
		// and is remembered.
		if got := o.Eval(b, nil, full); math.Float64bits(got) != math.Float64bits(full) {
			t.Errorf("%v: a pass bounded by its own value returned %v, want %v", mode, got, full)
		}
		if !o.memoValid || !sameBits(o.memoTheta, b) {
			t.Errorf("%v: a pass that met its bound was not remembered", mode)
		}
	}
}
