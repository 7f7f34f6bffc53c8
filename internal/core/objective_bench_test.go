package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"milret/internal/feature"
	"milret/internal/gray"
	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/optimize"
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

// vectorExampleSets returns n example sets shaped like the vector
// workloads' (the benchmark harness's corpus generator): 10 × 100 bags, one
// instance near the bag's category center and nine of clutter around three
// of 32 shared region prototypes, σ = 0.4. A set has three positives of one
// category that share no prototype and two negatives of the next two
// categories.
func vectorExampleSets(n int) []*mil.Dataset {
	const (
		dim, inst, cats, protos = 100, 10, 8, 32
		sigma                   = 0.4
	)
	geom := rand.New(rand.NewSource(20000))
	gauss := func(count int) []mat.Vector {
		out := make([]mat.Vector, count)
		for i := range out {
			out[i] = mat.NewVector(dim)
			for k := range out[i] {
				out[i][k] = geom.NormFloat64() * 2
			}
		}
		return out
	}
	centers, clutter := gauss(cats), gauss(protos)
	r := rand.New(rand.NewSource(39))
	bag := func(id string, cat int, kinds []int) *mil.Bag {
		match := r.Intn(inst)
		b := &mil.Bag{ID: id}
		for j := 0; j < inst; j++ {
			base := centers[cat]
			if j != match {
				base = clutter[kinds[r.Intn(len(kinds))]]
			}
			v := mat.NewVector(dim)
			for k := range v {
				v[k] = base[k] + r.NormFloat64()*sigma
			}
			b.Instances = append(b.Instances, v)
		}
		return b
	}
	sets := make([]*mil.Dataset, n)
	for i := range sets {
		cat, kinds := i%cats, r.Perm(protos)
		ds := &mil.Dataset{}
		for j := 0; j < 5; j++ {
			b := bag(fmt.Sprintf("s%d-%d", i, j), (cat+max(0, j-2))%cats, kinds[3*j:3*j+3])
			if j < 3 {
				ds.Positive = append(ds.Positive, b)
			} else {
				ds.Negative = append(ds.Negative, b)
			}
		}
		sets[i] = ds
	}
	return sets
}

// BenchmarkTrainConstrainedVectors is one cache-miss training as the vector
// workloads run it: vectorExampleSets in rotation, the paper's constrained
// weights at β = 0.5, a start from every positive instance. There the
// §3.6.3 projection runs on every line-search probe.
func BenchmarkTrainConstrainedVectors(b *testing.B) {
	sets := vectorExampleSets(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(sets[i%len(sets)], Config{Mode: SumConstraint, Beta: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// projectionProbes returns the weight vectors a β = 0.5 training of ds
// hands to BoxSum.Project, in the order one worker would: Train's race —
// every start to each barrier, the best third on — with a projector that
// records its input before projecting it.
func projectionProbes(ds *mil.Dataset) []mat.Vector {
	cfg := Config{Mode: SumConstraint, Beta: 0.5}.withDefaults()
	dim := ds.Dim()
	con := optimize.BoxSum{Lo: 0, Hi: 1, MinSum: cfg.Beta * float64(dim)}
	var probes []mat.Vector
	record := func(th mat.Vector) {
		probes = append(probes, th[dim:].Clone())
		con.Project(th[dim:])
	}
	obj := newObjective(packExamples(ds), SumConstraint)
	theta := mat.NewVector(2 * dim)
	var runs []*optimize.Stepper
	for _, inst := range startInstances(ds, 0) {
		initTheta(theta, inst, dim)
		runs = append(runs, optimize.NewProjectedGradient(record, theta, cfg.Opt))
	}
	for _, upTo := range append(rungSchedule(cfg.Opt.MaxIter), cfg.Opt.MaxIter) {
		for _, run := range runs {
			run.Run(obj.Eval, upTo)
		}
		sort.SliceStable(runs, func(i, j int) bool { return runs[i].Result().F < runs[j].Result().F })
		runs = runs[:(len(runs)+raceFactor-1)/raceFactor]
	}
	return probes
}

// BenchmarkProjectActive replays the projections of four
// BenchmarkTrainConstrainedVectors trainings whose sum constraint is active
// — about 97 % of them — so the bisection, its bracket and rootGuess's
// passes take the shares they take in a served training.
func BenchmarkProjectActive(b *testing.B) {
	sets := vectorExampleSets(4)
	con := optimize.BoxSum{Lo: 0, Hi: 1, MinSum: 0.5 * float64(sets[0].Dim())}
	var active []mat.Vector
	for _, ds := range sets {
		for _, p := range projectionProbes(ds) {
			if s, _ := mat.ClipSum(p, 0, con.Lo, con.Hi); s < con.MinSum {
				active = append(active, p)
			}
		}
	}
	x := mat.NewVector(len(active[0]))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, active[i%len(active)])
		con.Project(x)
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
