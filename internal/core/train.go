package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/optimize"
	"milret/internal/workloop"
)

// Cumulative objective-evaluation counters, one per trainer. They exist so
// tooling (cmd/experiments) can report evals/sec — the hardware-independent
// training-cost proxy — without threading counters through every caller.
// The start counters beside them say how Train's multi-start spends those
// evaluations: how many minimizations were launched, how many of them ran
// all the way to the iteration cap, and how many the race dropped at a
// barrier before that.
var (
	ddEvalCount    atomic.Int64
	emddEvalCount  atomic.Int64
	ddStartCount   atomic.Int64
	ddStartsCapped atomic.Int64
	ddStartsPruned atomic.Int64
)

// TrainerEvals returns the process-cumulative objective evaluation counts
// performed by Train (classic Diverse Density) and TrainEMDD. Callers diff
// two readings to attribute evaluations to a span of work.
func TrainerEvals() (dd, emdd int64) {
	return ddEvalCount.Load(), emddEvalCount.Load()
}

// TrainStats counts classic Diverse Density training work since process
// start — the "train" block of the stats tree as /v1/stats carries it: Evals
// objective evaluations spent in Starts optimization starts (the paper's
// §4.3 multi-start launches one per positive instance). A start ends one of
// three ways: StartsPruned were dropped at a rung barrier of the race,
// StartsCapped survived every barrier and reached the iteration cap
// (Config.Opt.MaxIter) with no tolerance stop, and the rest stopped on a
// tolerance. At the server's defaults (SumConstraint, β = 0) no start does
// the last — projected gradient crawls toward −log DD ≈ 0 with a unit step
// still far from zero at the cap — so the rung schedule, which fixes how many
// starts reach which iteration, is what bounds training cost. The counters
// are process-wide: every Train call feeds them.
type TrainStats struct {
	Evals        int64 `json:"evals"`
	Starts       int64 `json:"starts"`
	StartsCapped int64 `json:"starts_capped"`
	StartsPruned int64 `json:"starts_pruned"`
}

// TrainerStats snapshots Train's process-cumulative counters.
func TrainerStats() TrainStats {
	return TrainStats{
		Evals:        ddEvalCount.Load(),
		Starts:       ddStartCount.Load(),
		StartsCapped: ddStartsCapped.Load(),
		StartsPruned: ddStartsPruned.Load(),
	}
}

// Config controls a Diverse Density training run.
type Config struct {
	// Mode selects the weight-control scheme (§3.6). Default Original.
	Mode WeightMode
	// Beta is the sum-constraint level for SumConstraint (§3.6.3):
	// Σ w_k ≥ Beta·dim with w_k ∈ [0,1]. Beta 0 leaves only the box;
	// Beta 1 forces all weights to one. Ignored by other modes.
	Beta float64
	// StartBags bounds how many positive bags contribute starting points
	// (§4.3): 0 or ≥ len(positive) means all of them. The paper found 3 of
	// 5 indistinguishable from all 5, and 2 of 5 about 95% as good.
	StartBags int
	// Opt configures the inner minimizer. The zero value uses the
	// package defaults.
	Opt optimize.Options
	// Parallelism bounds concurrent optimization starts; 0 means
	// runtime.NumCPU().
	Parallelism int
}

// DefaultMaxIter bounds optimizer iterations per start when
// Config.Opt.MaxIter is unset. It is where the race's last survivors stop;
// the barriers before it (8, 24, 72) do not move with it. It is exported so
// cache-key canonicalization (the concept cache fingerprints the
// *effective* configuration) stays single-sourced with the training
// behavior: a request spelling the default explicitly and one leaving it
// zero must hash identically exactly when they train identically.
const DefaultMaxIter = 120

func (c Config) withDefaults() Config {
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.NumCPU()
	}
	if c.Opt.MaxIter <= 0 {
		c.Opt.MaxIter = DefaultMaxIter
	}
	if c.Opt.GradTol <= 0 {
		c.Opt.GradTol = 1e-5
	}
	return c
}

// Concept is a trained Diverse Density concept: the "ideal" point t in
// feature space plus the effective distance weights, ready to rank a
// database (§3.5).
type Concept struct {
	// Point is the concept location t.
	Point mat.Vector
	// Weights are the effective distance weights W_k such that
	// dist(x) = Σ_k W_k (t_k − x_k)². For Original these are the
	// squared raw weights; for Identical, all ones; for SumConstraint, the
	// constrained weights themselves.
	Weights mat.Vector
	// NegLogDD is the objective −log DD at the solution (lower is better).
	NegLogDD float64
	// Mode records the weight scheme that produced the concept.
	Mode WeightMode
	// Starts is the number of optimization starts launched, whether or not
	// the race let them run to the end.
	Starts int
	// Evals is the total number of objective evaluations across starts.
	Evals int
}

// PointWeights exposes the concept geometry for the flat columnar scan
// (retrieval.Scorer). The returned slices alias the concept's
// own vectors and must not be mutated.
func (c *Concept) PointWeights() (point, weights []float64) {
	return c.Point, c.Weights
}

// BestInstance returns the bag's distance to the concept together with the
// index of the instance achieving it — the region that "represents the
// user's concept" for this image, which is the interpretability hook the
// whole multiple-instance framing buys (§1.2). The index is -1 for an
// empty bag (distance +Inf).
//
// Each instance is scored by the canonical kernel (mat.WeightedSqDistBlocked)
// in full, and ties keep the earliest instance, so the distance carries the
// bits of the flat columnar scan's. It is what Explain reports and what the
// tests' naive reference ranks by.
func (c *Concept) BestInstance(b *mil.Bag) (dist float64, index int) {
	dist, index = math.Inf(1), -1
	for i, x := range b.Instances {
		if d := mat.WeightedSqDistBlocked(c.Point, x, c.Weights); d < dist || index < 0 {
			dist, index = d, i
		}
	}
	return dist, index
}

// Train maximizes Diverse Density over the dataset and returns the best
// concept found. Following §2.2.2, one minimization of −log DD starts from
// every instance of every selected positive bag (initial weights all one).
// The starts are run as a successive-halving race (rungSchedule): all of
// them for a short first rung, then at each barrier only the best third by
// objective go on to a rung three times longer, and the last survivors run
// to Config.Opt.MaxIter. The lowest final objective wins, ties broken by
// start order.
//
// A surviving start performs exactly the evaluations it would perform if no
// start were ever dropped, and every barrier decides from the complete,
// deterministic results of its rung, so the concept is a pure function of
// (dataset, Config minus Parallelism). Only which start wins can differ
// from running every start to the cap.
func Train(ds *mil.Dataset, cfg Config) (*Concept, error) {
	cfg = cfg.withDefaults()
	return train(ds, cfg, rungSchedule(cfg.Opt.MaxIter))
}

// The race's schedule. The first barrier stands after raceFirstRung
// iterations; raceFactor is both how much longer each rung is than the one
// before and the share of the field, one in raceFactor, that a barrier lets
// through. They are constants, not configuration: the pair was chosen once,
// from the trajectories of trainings on featurized scenes (the eventual
// winner is inside the best third after 8 iterations often enough that
// −log DD and precision@10 do not move), TestRaceQuality holds the choice to
// the unpruned run, and a request that could vary it would have to be part
// of every concept-cache key.
//
// The first rung is a count, not a fraction of the cap. How well an early
// objective predicts a late one depends on how far the minimizers have come,
// not on where the caller told them to stop: with the barriers scaled to a
// cap of 40 (first rung 3 iterations) internal/experiments' Fig43 session
// lost the eventual winner at the first barrier and its test precision@12
// fell from 11 to 4.
const (
	raceFirstRung = 8
	raceFactor    = 3
)

// rungSchedule returns the iteration counts at which the race stops every
// running start and drops the laggards: 8, 24, 72 for the default cap of
// 120. A shorter cap has fewer barriers, and a cap of 8 or less none.
func rungSchedule(maxIter int) []int {
	var rungs []int
	for r := raceFirstRung; r < maxIter; r *= raceFactor {
		rungs = append(rungs, r)
	}
	return rungs
}

// train is Train on a defaulted Config with the barriers given: every live
// start runs to each rung in turn, the field is cut after each, and the
// survivors run to the cap. With no rungs it is the exhaustive multi-start
// — every start to the cap — which the tests keep as the race's oracle.
func train(ds *mil.Dataset, cfg Config, rungs []int) (*Concept, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	dim := ds.Dim()
	if err := validate(cfg, dim); err != nil {
		return nil, err
	}

	starts := startInstances(ds, cfg.StartBags)
	if len(starts) == 0 {
		return nil, fmt.Errorf("core: no starting instances in the selected positive bags")
	}

	ex := packExamples(ds)
	theta := mat.NewVector(thetaDim(cfg.Mode, dim))
	runs := make([]*optimize.Stepper, len(starts))
	live := make([]int, len(starts))
	for i, inst := range starts {
		initTheta(theta, inst, dim)
		runs[i] = newStepper(cfg, dim, theta)
		live[i] = i
	}

	// A worker's objective is scratch plus a memo of its last evaluation
	// point; a start resumed on another worker's misses the memo at most
	// once, on a probe it would have computed anyway. Workers keep theirs
	// from rung to rung.
	objs := make([]*objective, min(cfg.Parallelism, len(starts)))
	advance := func(upTo int) {
		workloop.Run(len(live), len(objs), func(w int, claim func() (int, bool)) {
			if objs[w] == nil {
				objs[w] = newObjective(ex, cfg.Mode)
			}
			f := objs[w].Eval
			for i, ok := claim(); ok; i, ok = claim() {
				runs[live[i]].Run(f, upTo)
			}
		})
	}
	// ahead orders starts by objective, a NaN counting as +Inf, ties by start
	// order: the order of the barriers and of the final pick.
	rank := func(i int) float64 {
		if f := runs[i].Result().F; !math.IsNaN(f) {
			return f
		}
		return math.Inf(1)
	}
	ahead := func(a, b int) bool {
		fa, fb := rank(a), rank(b)
		return fa < fb || fa == fb && a < b
	}
	for _, upTo := range rungs {
		advance(upTo)
		sort.Slice(live, func(i, j int) bool { return ahead(live[i], live[j]) })
		live = live[:(len(live)+raceFactor-1)/raceFactor]
	}
	advance(cfg.Opt.MaxIter)

	best := live[0]
	for _, i := range live[1:] {
		if ahead(i, best) {
			best = i
		}
	}
	var evals, capped, pruned int64
	for _, run := range runs {
		res := run.Result()
		evals += int64(res.Evals)
		switch {
		case res.Converged:
		case res.Iters < cfg.Opt.MaxIter:
			pruned++
		default:
			capped++
		}
	}
	ddEvalCount.Add(evals)
	ddStartCount.Add(int64(len(starts)))
	ddStartsCapped.Add(capped)
	ddStartsPruned.Add(pruned)

	win := runs[best].Result()
	return newConcept(cfg.Mode, dim, win.X, win.F, len(starts), int(evals)), nil
}

// validate is what both trainers ask of a configuration beyond a valid
// dataset: under the §3.6.3 constraint, a β that is not negative and that
// weights in [0,1] can reach in dim dimensions.
func validate(cfg Config, dim int) error {
	if cfg.Mode != SumConstraint {
		return nil
	}
	con := optimize.BoxSum{Lo: 0, Hi: 1, MinSum: cfg.Beta * float64(dim)}
	if err := con.Validate(dim); err != nil {
		return fmt.Errorf("core: invalid beta %v: %w", cfg.Beta, err)
	}
	if cfg.Beta < 0 {
		return fmt.Errorf("core: negative beta %v", cfg.Beta)
	}
	return nil
}

// startInstances collects the starting points of the multi-start: every
// instance of the first startBags positive bags (§4.3; 0 or out of range
// means all of them), in dataset order for determinism.
func startInstances(ds *mil.Dataset, startBags int) []mat.Vector {
	if startBags <= 0 || startBags > len(ds.Positive) {
		startBags = len(ds.Positive)
	}
	var starts []mat.Vector
	for _, b := range ds.Positive[:startBags] {
		starts = append(starts, b.Instances...)
	}
	return starts
}

// newConcept unpacks a winning θ into a Concept: the point, and the
// effective distance weights the mode's parametrization implies.
func newConcept(mode WeightMode, dim int, theta mat.Vector, f float64, starts, evals int) *Concept {
	t, w := splitTheta(mode, dim, theta)
	c := &Concept{
		Point:    t.Clone(),
		Weights:  mat.NewVector(dim),
		NegLogDD: f,
		Mode:     mode,
		Starts:   starts,
		Evals:    evals,
	}
	distWeights(mode, w, c.Weights)
	return c
}

// initTheta packs a start into θ: the concept point on the instance, every
// weight (when the layout has weights) at one.
func initTheta(theta, inst mat.Vector, dim int) {
	copy(theta[:dim], inst)
	theta[dim:].Fill(1)
}

// newStepper prepares the mode's minimizer at theta: projected gradient
// under the §3.6.3 box-and-sum constraint, L-BFGS for the unconstrained
// modes. The stepper copies theta; the caller may reuse it.
func newStepper(cfg Config, dim int, theta mat.Vector) *optimize.Stepper {
	switch cfg.Mode {
	case SumConstraint:
		con := optimize.BoxSum{Lo: 0, Hi: 1, MinSum: cfg.Beta * float64(dim)}
		project := func(th mat.Vector) { con.Project(th[dim:]) }
		return optimize.NewProjectedGradient(project, theta, cfg.Opt)
	default: // Original, Identical
		return optimize.NewLBFGS(theta, cfg.Opt)
	}
}

// NegLogDDAt evaluates −log DD at an arbitrary (t, W) pair, where W are
// effective distance weights. It is exported for diagnostics and tests; the
// weight parametrization differences between modes are bypassed by treating
// W as SumConstraint-style direct weights.
func NegLogDDAt(ds *mil.Dataset, t, weights mat.Vector) float64 {
	obj := newObjective(packExamples(ds), SumConstraint)
	theta := mat.NewVector(2 * len(t))
	copy(theta[:len(t)], t)
	copy(theta[len(t):], weights)
	return obj.Eval(theta, nil, math.Inf(1))
}
