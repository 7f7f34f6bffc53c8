package optimize

import (
	"fmt"
	"math"

	"milret/internal/mat"
)

// BoxSum describes the feasible set of the §3.6.3 weight constraint:
//
//	{ x ∈ ℝⁿ : Lo ≤ x_i ≤ Hi for all i, Σ_i x_i ≥ MinSum }
//
// For the paper's constraint the box is [0, 1] and MinSum = β·h².
type BoxSum struct {
	Lo, Hi float64
	MinSum float64
}

// Feasible reports whether x satisfies the constraints up to tol.
func (c BoxSum) Feasible(x mat.Vector, tol float64) bool {
	var sum float64
	for _, v := range x {
		if v < c.Lo-tol || v > c.Hi+tol {
			return false
		}
		sum += v
	}
	return sum >= c.MinSum-tol
}

// Validate returns an error if the constraint set is empty or malformed for
// dimension n.
func (c BoxSum) Validate(n int) error {
	if c.Hi < c.Lo {
		return fmt.Errorf("optimize: empty box [%v, %v]", c.Lo, c.Hi)
	}
	if c.MinSum > c.Hi*float64(n) {
		return fmt.Errorf("optimize: sum constraint %v infeasible for %d dims in [%v, %v]",
			c.MinSum, n, c.Lo, c.Hi)
	}
	return nil
}

// Project replaces x with its Euclidean projection onto the constraint set,
// in place. The projection is exact:
//
//  1. clip x to the box; if the clipped point already satisfies the sum
//     constraint it is the projection (the box is separable);
//  2. otherwise the constraint is active, so the projection solves
//     min ‖z − x‖² s.t. z ∈ box, Σz = MinSum, whose KKT solution is
//     z_i = clip(x_i + λ) for the unique λ ≥ 0 with Σz(λ) = MinSum —
//     found by bisection (Σz(λ) is continuous and non-decreasing).
//
// The bisection is the projection's definition: its midpoints, its stop and
// its answer λ = hi fix every output bit. What is cheap is its test. The
// serial sum S(λ) = Σ clip(x_i + λ), added in index order, is itself
// monotone non-decreasing in λ — rounding x_i + λ, clipping and each
// rounded add are all non-decreasing — so once S(a) < MinSum is known,
// every λ ≤ a tests below without a sum, and once S(b) ≥ MinSum is known,
// every λ ≥ b tests not below. The loop keeps that bracket [a, b] from its
// exact sums and sums only at a midpoint strictly inside it; seeding the
// bracket with exact sums beside an approximate root (rootGuess) leaves a
// few sums per projection where the plain loop spent one per halving.
//
// Project panics if the set is infeasible for len(x); callers validate the
// constraint once at configuration time with Validate.
func (c BoxSum) Project(x mat.Vector) {
	n := len(x)
	if err := c.Validate(n); err != nil {
		panic(err)
	}
	if c.Lo >= 0 && c.MinSum <= 0 {
		// The sum constraint cannot bind (core's β = 0): every clipped
		// coordinate is ≥ Lo ≥ 0 and a floating-point sum of non-negative
		// terms is non-negative, so step 1's test sum ≥ MinSum passes
		// whatever x holds and its result — each coordinate clipped, the
		// same floats — needs no sum first. (A NaN coordinate is the one
		// exception: it used to fail that test and send the rest through a
		// bisection that moved them by a rounding-sized λ. The objective is
		// NaN at such a point and every line search discards it.)
		mat.Clip(x, c.Lo, c.Hi)
		return
	}
	// Shifting by −0 leaves every coordinate as it is (v + 0 would turn a
	// −0 into +0), so this is the serial sum of the clipped coordinates.
	sum, minX := mat.ClipSum(x, negZero, c.Lo, c.Hi)
	if sum >= c.MinSum {
		mat.Clip(x, c.Lo, c.Hi)
		return
	}
	// The sum constraint is active; the KKT solution shifts the ORIGINAL
	// coordinates by a common multiplier before clipping:
	// z_i = clip(x_i + λ). Bisect on λ ∈ [0, Hi − min_i x_i]; at the upper
	// bound every coordinate reaches Hi, where Σ = n·Hi ≥ MinSum by
	// Validate, and Σz(λ) is continuous and non-decreasing.
	sumAt := func(lambda float64) float64 {
		s, _ := mat.ClipSum(x, lambda, c.Lo, c.Hi)
		return s
	}
	lo, hi := 0.0, c.Hi-minX
	// S(a) < MinSum ≤ S(b), each known from an exact sum; (−Inf, +Inf)
	// knows nothing and sums at every test.
	a, b := math.Inf(-1), math.Inf(1)
	below := func(lambda float64) bool {
		switch {
		case lambda <= a:
			return true
		case lambda >= b:
			return false
		case sumAt(lambda) < c.MinSum:
			a = lambda
			return true
		}
		b = lambda
		return false
	}
	if !math.IsNaN(sum) && !math.IsInf(sum, 0) && !math.IsInf(minX, -1) {
		// Close the bracket around the guess: an exact sum there, then
		// exact sums at widening steps away from it until one lands on the
		// other side. Monotonicity needs finite, NaN-free coordinates; any
		// other input keeps the open bracket and sums at every midpoint.
		r := c.rootGuess(x, lo, hi)
		above := !below(r)
		d := 0x1p-50 * (1 + math.Abs(r))
		for try := 0; try < 8; try, d = try+1, 4*d {
			if above {
				if below(max(r-d, lo)) {
					break
				}
			} else if !below(min(r+d, hi)) {
				break
			}
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-14*(1+math.Abs(hi)); iter++ {
		mid := (lo + hi) / 2
		if below(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	mat.ClipShift(x, hi, c.Lo, c.Hi)
}

// negZero is −0, the shift that moves no coordinate.
var negZero = math.Copysign(0, -1)

// rootGuess returns an approximate root in [lo, hi] of the piecewise-linear
// Σ clip(x_i + λ) = MinSum, given that λ = lo lies below it: safeguarded
// semi-smooth Newton steps, the slope being the number of coordinates
// strictly inside the box, falling back to halving the bracket when a step
// leaves it or no coordinate is free. Project only seeds its bracket here,
// so the guess decides how many exact sums the bisection spends, never its
// answer — which is why its sums (mat.ClipSumFree) may add in any order.
func (c BoxSum) rootGuess(x mat.Vector, lo, hi float64) float64 {
	lambda := lo
	for iter := 0; iter < 12; iter++ {
		s, free := mat.ClipSumFree(x, lambda, c.Lo, c.Hi)
		if s < c.MinSum {
			lo = lambda
		} else {
			hi = lambda
		}
		next := (lo + hi) / 2
		if free > 0 {
			step := (c.MinSum - s) / float64(free)
			if math.Abs(step) <= 0x1p-50*(1+math.Abs(lambda)) {
				return lambda + step
			}
			if lambda+step > lo && lambda+step < hi {
				next = lambda + step
			}
		}
		lambda = next
	}
	return lambda
}

// NewProjectedGradient prepares a minimization over the set obtained by
// applying project to candidate points, from the projection of x0. Each
// iteration takes a gradient step and projects back; the step length
// backtracks until the projected point achieves sufficient decrease
// (projected-gradient Armijo rule), and the run is stationary — its only
// tolerance stop — when no step length moves the projected point by more
// than StepTol. project must be an exact Euclidean projector, such as
// BoxSum.Project.
func NewProjectedGradient(project func(mat.Vector), x0 mat.Vector, opt Options) *Stepper {
	s := newStepper(projectedGradientStep, x0, opt)
	s.project = project
	project(s.x)
	return s
}

func projectedGradientStep(s *Stepper, f Func) bool {
	x, xt := s.x, s.xt
	for t := s.step; t > s.opt.StepTol; t *= 0.5 {
		copy(xt, x)
		xt.AddScaled(-t, s.g)
		s.project(xt)
		// Sufficient decrease relative to the projected displacement; the
		// value that achieves it is the probe's bound.
		var moved float64
		for i := range x {
			d := xt[i] - x[i]
			moved += d * d
		}
		accept := s.fx - 1e-4*moved/t
		ft := f(xt, nil, accept)
		s.evals++
		if moved <= s.opt.StepTol*s.opt.StepTol {
			return false // projection pinned us: stationary
		}
		if ft <= accept {
			copy(x, xt)
			s.fx = s.eval(f)
			s.step = math.Min(initStep, t*2)
			return true
		}
	}
	return false
}
