// Package optimize is the numerical-optimization substrate for Diverse
// Density training. The original system relied on an unconstrained
// gradient-ascent code plus CFSQP (a C library for constrained sequential
// quadratic programming, §3.6.3) — neither is available here, so the package
// implements the needed machinery from scratch:
//
//   - backtracking (Armijo) line search;
//   - gradient descent, robust to the "hacked" quasi-gradients of §3.6.2;
//   - L-BFGS with the two-loop recursion for the unconstrained modes;
//   - exact Euclidean projection onto {x ∈ [lo,hi]ⁿ : Σx ≥ c} and projected
//     gradient descent, which replaces CFSQP for the paper's single linear
//     inequality constraint on the weight sum.
//
// All minimizers share the Func/Options/Result vocabulary. Minimization is
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
type Func func(x mat.Vector, grad mat.Vector) float64

// Options configures a minimization run. The zero value is usable: every
// field has a sensible default applied by (*Options).withDefaults.
type Options struct {
	// MaxIter bounds the number of outer iterations (default 200).
	MaxIter int
	// GradTol stops the run when the max-abs gradient entry (for projected
	// methods: of the projected step) falls below it (default 1e-6).
	GradTol float64
	// StepTol stops the run when the line search cannot make progress
	// larger than it (default 1e-12).
	StepTol float64
	// InitStep is the first trial step of each line search (default 1.0).
	InitStep float64
	// Memory is the L-BFGS history length (default 8).
	Memory int
}

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
	if o.InitStep <= 0 {
		o.InitStep = 1.0
	}
	if o.Memory <= 0 {
		o.Memory = 8
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

// armijo backtracks from step t0 along direction d until the sufficient
// decrease condition f(x+t·d) ≤ f0 + 1e-4·t·slope holds, where slope is the
// (estimated) directional derivative at x. It returns the accepted step and
// the number of evaluations; step 0 means failure. The probe vector xt is
// scratch storage supplied by the caller to avoid per-iteration allocation.
//
// The accepted value is not returned: callers move x by the same
// x.AddScaled(t, d) the accepted probe was built with — the same bits — and
// then ask for value and gradient there, so a Func that remembers its last
// evaluation point (core's objective does) answers from the probe's work
// and runs only its gradient pass.
func armijo(f Func, x, d mat.Vector, f0, slope, t0, stepTol float64, xt mat.Vector) (t float64, evals int) {
	const c1 = 1e-4
	if slope >= 0 {
		// Not a descent direction: the caller handed us a quasi-gradient
		// (§3.6.2) that points uphill, or we are at a stationary point.
		return 0, 0
	}
	t = t0
	for t > stepTol {
		copy(xt, x)
		xt.AddScaled(t, d)
		ft := f(xt, nil)
		evals++
		if !math.IsNaN(ft) && ft <= f0+c1*t*slope {
			return t, evals
		}
		t *= 0.5
	}
	return 0, evals
}

// GradientDescent minimizes f from x0 with steepest descent and Armijo
// backtracking. It is the workhorse for the §3.6.2 α-hack mode, whose
// modified partial derivatives do not correspond to any objective and
// therefore rule out curvature-based methods: steepest descent only needs
// the (quasi-)gradient to be a descent direction, which positive rescaling
// of components preserves.
func GradientDescent(f Func, x0 mat.Vector, opt Options) Result {
	opt = opt.withDefaults()
	n := len(x0)
	x := x0.Clone()
	g := mat.NewVector(n)
	d := mat.NewVector(n)
	xt := mat.NewVector(n)
	res := Result{}
	fx := f(x, g)
	res.Evals++
	step := opt.InitStep
	for it := 0; it < opt.MaxIter; it++ {
		res.Iters = it + 1
		if g.MaxAbs() < opt.GradTol {
			res.Converged = true
			break
		}
		copy(d, g)
		d.Scale(-1)
		slope := g.Dot(d)
		t, ev := armijo(f, x, d, fx, slope, step, opt.StepTol, xt)
		res.Evals += ev
		if t == 0 {
			res.Converged = true
			break
		}
		x.AddScaled(t, d)
		// Warm-start the next line search near the accepted step.
		step = math.Min(opt.InitStep, t*2)
		fx = f(x, g)
		res.Evals++
	}
	res.X = x
	res.F = fx
	return res
}
