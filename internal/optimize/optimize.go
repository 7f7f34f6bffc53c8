// Package optimize is the numerical-optimization substrate for Diverse
// Density training. The original system relied on an unconstrained
// gradient-ascent code plus CFSQP (a C library for constrained sequential
// quadratic programming, §3.6.3) — neither is available here, so the package
// implements the needed machinery from scratch:
//
//   - L-BFGS with the two-loop recursion and a backtracking (Armijo) line
//     search for the unconstrained modes;
//   - exact Euclidean projection onto {x ∈ [lo,hi]ⁿ : Σx ≥ c} and projected
//     gradient descent, which replaces CFSQP for the paper's single linear
//     inequality constraint on the weight sum.
//
// Every minimizer is a Stepper: a run that owns its whole state (iterate,
// gradient, objective value, line-search step, L-BFGS history) and advances
// to an iteration count, so a caller racing many starts can pause each at a
// barrier, drop the laggards and resume the rest — with any Func that
// computes the same objective, on any goroutine. A run advanced in pieces
// performs exactly the evaluations of the same run advanced in one call, and
// allocates nothing after construction.
//
// Both minimizers share the Func/Options/Result vocabulary. Minimization is
// the house convention; Diverse Density is maximized by minimizing
// −log(DD), exactly as the paper does (§3.6.3 footnote).
package optimize

import (
	"math"

	"milret/internal/mat"
)

// Func evaluates an objective at x, returning f(x). If grad is non-nil it
// must be filled with ∇f(x) (same length as x). Implementations must not
// retain x or grad.
//
// bound is the largest value the caller would accept. The line searches
// reject a probe whose value is above bound or NaN whatever else it is, so a
// value-only evaluation (grad nil) may return any value above bound as soon
// as it knows that f(x) is one or the other; it must return f(x) itself
// whenever f(x) ≤ bound. An implementation that ignores bound always
// satisfies this. Evaluations with a gradient pass +Inf.
type Func func(x, grad mat.Vector, bound float64) float64

// Options configures a minimization run. The zero value is usable: every
// field has a sensible default applied by (*Options).withDefaults.
type Options struct {
	// MaxIter bounds the number of outer iterations (default 200).
	MaxIter int
	// GradTol stops LBFGS when the max-abs gradient entry falls below it
	// (default 1e-6). ProjectedGradient does not read it: at a constrained
	// minimum the gradient is not small, and the method stops on StepTol
	// alone.
	GradTol float64
	// StepTol stops the run when the line search cannot make progress
	// larger than it (default 1e-12). It is the only tolerance of
	// ProjectedGradient, which is stationary exactly when no step length
	// moves the projected point.
	StepTol float64
}

const (
	// initStep is the first trial step of each line search.
	initStep = 1.0
	// lbfgsMemory is the L-BFGS history length.
	lbfgsMemory = 8
)

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-6
	}
	if o.StepTol <= 0 {
		o.StepTol = 1e-12
	}
	return o
}

// Result reports the outcome of a minimization run.
type Result struct {
	// X is the best point found.
	X mat.Vector
	// F is the objective value at X.
	F float64
	// Iters is the number of outer iterations performed.
	Iters int
	// Evals counts objective evaluations (including line-search probes).
	Evals int
	// Converged is true if a tolerance (not the iteration cap) stopped the
	// run.
	Converged bool
}

// Stepper is one minimization run that can stop at an iteration count and be
// resumed. It owns everything the run carries between iterations, so the
// Func passed to Run is only an evaluator: successive calls may pass
// different Func values as long as they compute the same objective, which is
// what lets a pool of workers, each with its own scratch, take turns on one
// start. Advancing in several calls performs the same evaluations, in the
// same order, as one call to the final count; after construction no call
// allocates. A Stepper is not safe for concurrent use.
type Stepper struct {
	// iterate performs one outer iteration from the current state and
	// reports whether the run goes on; false means a tolerance stopped it.
	iterate func(s *Stepper, f Func) bool

	opt   Options
	x, g  mat.Vector // iterate and ∇f(x); g and fx are valid once evals > 0
	fx    float64
	d, xt mat.Vector // search direction (nil for projected gradient), probe
	step  float64    // first trial step of the next line search

	iters, evals int
	converged    bool

	project func(mat.Vector) // projected gradient only
	hist    *history         // L-BFGS only
}

func newStepper(iterate func(*Stepper, Func) bool, x0 mat.Vector, opt Options) *Stepper {
	opt = opt.withDefaults()
	return &Stepper{
		iterate: iterate,
		opt:     opt,
		x:       x0.Clone(),
		g:       mat.NewVector(len(x0)),
		xt:      mat.NewVector(len(x0)),
		step:    initStep,
	}
}

// Run advances the minimization of f until upTo outer iterations have been
// performed in total (Options.MaxIter at most) or a tolerance stops it; a run
// already there returns at once. The first call evaluates f at the start.
func (s *Stepper) Run(f Func, upTo int) {
	if upTo > s.opt.MaxIter {
		upTo = s.opt.MaxIter
	}
	if s.evals == 0 {
		s.fx = s.eval(f)
	}
	for !s.converged && s.iters < upTo {
		s.iters++
		s.converged = !s.iterate(s, f)
	}
}

// Result reports where the run stands. X aliases the stepper's iterate: it
// is overwritten by the next Run.
func (s *Stepper) Result() Result {
	return Result{X: s.x, F: s.fx, Iters: s.iters, Evals: s.evals, Converged: s.converged}
}

// eval evaluates f and its gradient at the iterate.
func (s *Stepper) eval(f Func) float64 {
	s.evals++
	return f(s.x, s.g, math.Inf(1))
}

// Minimize runs to the iteration cap (or a tolerance) in one call and
// reports the outcome.
func (s *Stepper) Minimize(f Func) Result {
	s.Run(f, s.opt.MaxIter)
	return s.Result()
}

// armijo backtracks from step t0 along s.d until the sufficient decrease
// condition f(x+t·d) ≤ fx + 1e-4·t·slope holds, where slope is the
// directional derivative at x. It returns the accepted step; 0 means
// failure.
//
// The accepted value is not returned: callers move x by the same
// x.AddScaled(t, d) the accepted probe was built with — the same bits — and
// then ask for value and gradient there, so a Func that remembers its last
// evaluation point (core's objective does) answers from the probe's work
// and runs only its gradient pass. Each probe carries the value it has to
// stay under as its bound, so a Func that can tell early that it will not
// (core's objective sums non-negative terms) stops there.
func (s *Stepper) armijo(f Func, slope, t0 float64) float64 {
	const c1 = 1e-4
	if slope >= 0 {
		// Not a descent direction. L-BFGS falls back to steepest descent
		// before asking, so only a zero gradient — a stationary point —
		// gets here.
		return 0
	}
	for t := t0; t > s.opt.StepTol; t *= 0.5 {
		copy(s.xt, s.x)
		s.xt.AddScaled(t, s.d)
		accept := s.fx + c1*t*slope
		ft := f(s.xt, nil, accept)
		s.evals++
		if !math.IsNaN(ft) && ft <= accept {
			return t
		}
	}
	return 0
}
