package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/optimize"
)

// Cumulative objective-evaluation counters, one per trainer. They exist so
// tooling (cmd/experiments) can report evals/sec — the hardware-independent
// training-cost proxy — without threading counters through every caller.
// The start counters beside them say how Train's multi-start spends those
// evaluations: how many minimizations ran, and how many of them stopped on
// the iteration cap rather than on a tolerance.
var (
	ddEvalCount    atomic.Int64
	emddEvalCount  atomic.Int64
	ddStartCount   atomic.Int64
	ddStartsCapped atomic.Int64
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
// §4.3 multi-start runs one per positive instance), of which StartsCapped
// ended on the iteration cap (Config.Opt.MaxIter) instead of converging. A
// capped share near one means the cap, not the tolerance, decides training
// cost. The counters are process-wide: every Train call feeds them.
type TrainStats struct {
	Evals        int64 `json:"evals"`
	Starts       int64 `json:"starts"`
	StartsCapped int64 `json:"starts_capped"`
}

// TrainerStats snapshots Train's process-cumulative counters.
func TrainerStats() TrainStats {
	return TrainStats{
		Evals:        ddEvalCount.Load(),
		Starts:       ddStartCount.Load(),
		StartsCapped: ddStartsCapped.Load(),
	}
}

// Config controls a Diverse Density training run.
type Config struct {
	// Mode selects the weight-control scheme (§3.6). Default Original.
	Mode WeightMode
	// Alpha is the gradient divisor for AlphaHack (§3.6.2); the paper
	// found values around 50 occasionally better than both extremes.
	// Ignored by other modes. Default 50.
	Alpha float64
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

// Defaults applied by Config.withDefaults, exported so cache-key
// canonicalization (the concept cache fingerprints the *effective*
// configuration) stays single-sourced with the training behavior: a
// request spelling a default explicitly and one leaving it zero must
// hash identically exactly when they train identically.
const (
	// DefaultAlpha is the AlphaHack gradient divisor used when
	// Config.Alpha is unset.
	DefaultAlpha = 50
	// DefaultMaxIter bounds optimizer iterations per start when
	// Config.Opt.MaxIter is unset.
	DefaultMaxIter = 120
)

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 {
		c.Alpha = DefaultAlpha
	}
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
	// dist(x) = Σ_k W_k (t_k − x_k)². For Original/AlphaHack these are the
	// squared raw weights; for Identical, all ones; for SumConstraint, the
	// constrained weights themselves.
	Weights mat.Vector
	// NegLogDD is the objective −log DD at the solution (lower is better).
	NegLogDD float64
	// Mode records the weight scheme that produced the concept.
	Mode WeightMode
	// Starts is the number of optimization starts performed.
	Starts int
	// Evals is the total number of objective evaluations across starts.
	Evals int
}

// SqDistTo returns the weighted squared distance from the concept point to
// the instance x.
func (c *Concept) SqDistTo(x mat.Vector) float64 {
	return mat.WeightedSqDist(c.Point, x, c.Weights)
}

// PointWeights exposes the concept geometry for the flat columnar scan
// (retrieval.Scorer). The returned slices alias the concept's
// own vectors and must not be mutated.
func (c *Concept) PointWeights() (point, weights []float64) {
	return c.Point, c.Weights
}

// BagDist returns the distance from an image (bag) to the concept: the
// minimum over the bag's instances of the weighted distance to t (§3.5).
func (c *Concept) BagDist(b *mil.Bag) float64 {
	d, _ := c.BestInstance(b)
	return d
}

// BestInstance returns the bag's distance to the concept together with the
// index of the instance achieving it — the region that "represents the
// user's concept" for this image, which is the interpretability hook the
// whole multiple-instance framing buys (§1.2). The index is -1 for an
// empty bag (distance +Inf).
//
// The whole bag is scored in one batched kernel call
// (mat.MinWeightedSqDistVecs) with within-bag early abandonment when the
// weights permit it, instead of a full kernel evaluation per instance. It
// is what Explain reports and what the tests' naive reference ranks by; it
// stays bit-identical to the flat columnar scan by sharing the kernel's
// block order and pruning contract.
func (c *Concept) BestInstance(b *mil.Bag) (dist float64, index int) {
	return mat.MinWeightedSqDistVecs(c.Point, c.Weights, b.Instances, math.Inf(1), c.Weights.AllNonNegative())
}

// Train maximizes Diverse Density over the dataset and returns the best
// concept found. Following §2.2.2, one minimization of −log DD starts from
// every instance of every selected positive bag (initial weights all one);
// starts run concurrently and the lowest final objective wins, with ties
// broken by start order for determinism.
func Train(ds *mil.Dataset, cfg Config) (*Concept, error) {
	cfg = cfg.withDefaults()
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	dim := ds.Dim()
	if cfg.Mode == SumConstraint {
		con := optimize.BoxSum{Lo: 0, Hi: 1, MinSum: cfg.Beta * float64(dim)}
		if err := con.Validate(dim); err != nil {
			return nil, fmt.Errorf("core: invalid beta %v: %w", cfg.Beta, err)
		}
		if cfg.Beta < 0 {
			return nil, fmt.Errorf("core: negative beta %v", cfg.Beta)
		}
	}

	starts := startInstances(ds, cfg.StartBags)
	if len(starts) == 0 {
		return nil, fmt.Errorf("core: no starting instances in the selected positive bags")
	}

	ex := packExamples(ds)
	results := make([]optimize.Result, len(starts))
	forEachStart(len(starts), cfg.Parallelism, func() func(int) {
		obj := newObjective(ex, cfg.Mode, cfg.Alpha)
		theta := mat.NewVector(obj.thetaDim())
		return func(i int) {
			initTheta(theta, starts[i], dim)
			results[i] = minimize(obj.Eval, cfg, dim, theta)
		}
	})

	best := -1
	totalEvals := 0
	capped := 0
	for i, res := range results {
		totalEvals += res.Evals
		if !res.Converged {
			capped++
		}
		if best < 0 || res.F < results[best].F {
			best = i
		}
	}
	win := results[best]
	ddEvalCount.Add(int64(totalEvals))
	ddStartCount.Add(int64(len(starts)))
	ddStartsCapped.Add(int64(capped))

	return newConcept(cfg.Mode, dim, win.X, win.F, len(starts), totalEvals), nil
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

// forEachStart runs work items 0..n−1 on at most par goroutines. Each
// goroutine calls newWorker once for a closure that owns that goroutine's
// scratch (an objective is not safe to share, and allocating one per start
// is most of a training run's garbage), then feeds it indices until none
// are left. Starts are independent, so which worker runs which start
// affects nothing they compute.
func forEachStart(n, par int, newWorker func() func(i int)) {
	if par > n {
		par = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := newWorker()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				run(i)
			}
		}()
	}
	wg.Wait()
}

// initTheta packs a start into θ: the concept point on the instance, every
// weight (when the layout has weights) at one.
func initTheta(theta, inst mat.Vector, dim int) {
	copy(theta[:dim], inst)
	theta[dim:].Fill(1)
}

// minimize runs the mode's minimizer on f from theta: projected gradient
// under the §3.6.3 box-and-sum constraint, plain gradient descent for the
// α-hack's quasi-gradient (§3.6.2), L-BFGS for the unconstrained modes.
// The minimizers copy theta; the caller may reuse it.
func minimize(f optimize.Func, cfg Config, dim int, theta mat.Vector) optimize.Result {
	switch cfg.Mode {
	case SumConstraint:
		con := optimize.BoxSum{Lo: 0, Hi: 1, MinSum: cfg.Beta * float64(dim)}
		project := func(th mat.Vector) { con.Project(th[dim:]) }
		return optimize.ProjectedGradient(f, project, theta, cfg.Opt)
	case AlphaHack:
		return optimize.GradientDescent(f, theta, cfg.Opt)
	default: // Original, Identical
		return optimize.LBFGS(f, theta, cfg.Opt)
	}
}

// NegLogDDAt evaluates −log DD at an arbitrary (t, W) pair, where W are
// effective distance weights. It is exported for diagnostics and tests; the
// weight parametrization differences between modes are bypassed by treating
// W as SumConstraint-style direct weights.
func NegLogDDAt(ds *mil.Dataset, t, weights mat.Vector) float64 {
	obj := newObjective(packExamples(ds), SumConstraint, 0)
	theta := mat.NewVector(2 * len(t))
	copy(theta[:len(t)], t)
	copy(theta[len(t):], weights)
	return obj.Eval(theta, nil)
}
