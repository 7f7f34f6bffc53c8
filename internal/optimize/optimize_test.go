package optimize

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"milret/internal/mat"
)

// quadratic returns f(x) = Σ a_i (x_i − c_i)² with its gradient.
func quadratic(a, c mat.Vector) Func {
	return func(x, grad mat.Vector, _ float64) float64 {
		var f float64
		for i := range x {
			d := x[i] - c[i]
			f += a[i] * d * d
			if grad != nil {
				grad[i] = 2 * a[i] * d
			}
		}
		return f
	}
}

// rosenbrock is the classic banana function in 2D, minimum at (1, 1).
func rosenbrock(x, grad mat.Vector, _ float64) float64 {
	a, b := x[0], x[1]
	f := (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
	if grad != nil {
		grad[0] = -2*(1-a) - 400*a*(b-a*a)
		grad[1] = 200 * (b - a*a)
	}
	return f
}

func TestLBFGSAtMinimum(t *testing.T) {
	f := quadratic(mat.NewVector(2).Fill(1), mat.Vector{1, 1})
	res := NewLBFGS(mat.Vector{1, 1}, Options{}).Minimize(f)
	if !res.Converged || res.Iters != 1 || res.Evals != 1 {
		t.Fatalf("should converge immediately at the minimum: %+v", res)
	}
	if res.F > 1e-12 {
		t.Fatalf("f at minimum = %v", res.F)
	}
}

func TestLBFGSQuadratic(t *testing.T) {
	f := quadratic(mat.Vector{1, 3, 0.5, 10}, mat.Vector{2, -1, 4, 0.5})
	res := NewLBFGS(mat.NewVector(4), Options{MaxIter: 200}).Minimize(f)
	if !near(res.X, mat.Vector{2, -1, 4, 0.5}, 1e-4) {
		t.Fatalf("LBFGS solution %v", res.X)
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	res := NewLBFGS(mat.Vector{-1.2, 1}, Options{MaxIter: 2000, GradTol: 1e-8}).Minimize(rosenbrock)
	if !near(res.X, mat.Vector{1, 1}, 1e-3) {
		t.Fatalf("LBFGS Rosenbrock solution %v (f=%v, iters=%d)", res.X, res.F, res.Iters)
	}
}

// TestLBFGSIllConditioned: a 20-dimensional quadratic with curvatures from 1
// to 10^3.8. L-BFGS must stop on its gradient tolerance (177 iterations at
// the time of writing) inside a cap of 300, with −log DD's usual accuracy.
func TestLBFGSIllConditioned(t *testing.T) {
	n := 20
	a := mat.NewVector(n)
	c := mat.NewVector(n)
	for i := range a {
		a[i] = math.Pow(10, float64(i)/5) // condition number 1e4-ish
		c[i] = float64(i%3) - 1
	}
	res := NewLBFGS(mat.NewVector(n), Options{MaxIter: 300, GradTol: 1e-3}).Minimize(quadratic(a, c))
	if !res.Converged || res.Iters >= 300 || res.F > 1e-5 {
		t.Fatalf("LBFGS did not converge inside 300 iterations: %+v", res)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxIter != 200 || o.GradTol != 1e-6 || o.StepTol != 1e-12 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
}

func TestBoxSumValidate(t *testing.T) {
	if err := (BoxSum{Lo: 0, Hi: 1, MinSum: 0.5}).Validate(4); err != nil {
		t.Fatalf("feasible constraint rejected: %v", err)
	}
	if err := (BoxSum{Lo: 0, Hi: 1, MinSum: 5}).Validate(4); err == nil {
		t.Fatalf("infeasible sum accepted")
	}
	if err := (BoxSum{Lo: 1, Hi: 0}).Validate(4); err == nil {
		t.Fatalf("empty box accepted")
	}
}

func TestProjectBoxOnly(t *testing.T) {
	c := BoxSum{Lo: 0, Hi: 1, MinSum: 0}
	x := mat.Vector{-0.5, 0.25, 2}
	c.Project(x)
	if !slices.Equal(x, mat.Vector{0, 0.25, 1}) {
		t.Fatalf("box projection = %v", x)
	}
}

func TestProjectSumActiveKnownCase(t *testing.T) {
	// x = (0, 0), box [0,1], MinSum 1 → projection is (0.5, 0.5).
	c := BoxSum{Lo: 0, Hi: 1, MinSum: 1}
	x := mat.Vector{0, 0}
	c.Project(x)
	if !near(x, mat.Vector{0.5, 0.5}, 1e-9) {
		t.Fatalf("projection = %v, want (0.5, 0.5)", x)
	}
}

func TestProjectSumActiveAsymmetric(t *testing.T) {
	// x = (0.9, 0), MinSum 1.5, box [0,1]: λ solves clip(0.9+λ)+clip(λ)=1.5.
	// With λ=0.3: min(1.2,1)=1 plus 0.3 = 1.3 < 1.5; λ=0.5: 1+0.5=1.5. ✓
	c := BoxSum{Lo: 0, Hi: 1, MinSum: 1.5}
	x := mat.Vector{0.9, 0}
	c.Project(x)
	if !near(x, mat.Vector{1, 0.5}, 1e-6) {
		t.Fatalf("projection = %v, want (1, 0.5)", x)
	}
}

func TestProjectInfeasiblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for infeasible set")
		}
	}()
	c := BoxSum{Lo: 0, Hi: 1, MinSum: 10}
	c.Project(mat.Vector{0, 0})
}

// Property: projection output is feasible and idempotent.
func TestQuickProjectFeasibleIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		c := BoxSum{Lo: 0, Hi: 1, MinSum: r.Float64() * float64(n)}
		x := mat.NewVector(n)
		for i := range x {
			x[i] = r.NormFloat64() * 2
		}
		c.Project(x)
		if !c.Feasible(x, 1e-9) {
			return false
		}
		y := x.Clone()
		c.Project(y)
		return near(x, y, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the projection is no farther from the input than any random
// feasible point (Euclidean optimality of the projection).
func TestQuickProjectOptimality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		c := BoxSum{Lo: 0, Hi: 1, MinSum: r.Float64() * float64(n) * 0.9}
		x := mat.NewVector(n)
		for i := range x {
			x[i] = r.NormFloat64() * 2
		}
		p := x.Clone()
		c.Project(p)
		dp := mat.WeightedSqDist(p, x, mat.NewVector(len(p)).Fill(1))
		for trial := 0; trial < 30; trial++ {
			z := mat.NewVector(n)
			for i := range z {
				z[i] = r.Float64()
			}
			c.Project(z) // make z feasible (it already is in-box; fix sum)
			if mat.WeightedSqDist(z, x, mat.NewVector(len(z)).Fill(1)) < dp-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectedGradientMatchesProjection(t *testing.T) {
	// min ‖x − p‖² over the set is solved by projecting p.
	p := mat.Vector{2, -1, 0.4, 0.9}
	c := BoxSum{Lo: 0, Hi: 1, MinSum: 2.5}
	f := quadratic(mat.NewVector(4).Fill(1), p)
	res := NewProjectedGradient(c.Project, mat.NewVector(4), Options{MaxIter: 500}).Minimize(f)
	want := p.Clone()
	c.Project(want)
	if !near(res.X, want, 1e-4) {
		t.Fatalf("projected gradient %v, want %v", res.X, want)
	}
	if !c.Feasible(res.X, 1e-9) {
		t.Fatalf("result infeasible: %v", res.X)
	}
}

func TestProjectedGradientStaysFeasible(t *testing.T) {
	c := BoxSum{Lo: 0, Hi: 1, MinSum: 1.2}
	// A wiggly objective pulling toward the infeasible origin.
	f := func(x, grad mat.Vector, _ float64) float64 {
		var v float64
		for i := range x {
			v += x[i]*x[i] + 0.1*math.Sin(5*x[i])
			if grad != nil {
				grad[i] = 2*x[i] + 0.5*math.Cos(5*x[i])
			}
		}
		return v
	}
	res := NewProjectedGradient(c.Project, mat.Vector{1, 1, 1}, Options{MaxIter: 300}).Minimize(f)
	if !c.Feasible(res.X, 1e-9) {
		t.Fatalf("infeasible result %v", res.X)
	}
	// At the optimum the sum constraint must be active (objective decreases
	// toward the origin).
	if sum := res.X.Sum(); sum > 1.2+1e-6 {
		t.Fatalf("sum constraint should be active: Σ=%v", sum)
	}
}

func TestProjectedGradientUnconstrainedInterior(t *testing.T) {
	// When the unconstrained minimum is interior, projection must not
	// perturb the answer.
	c := BoxSum{Lo: 0, Hi: 1, MinSum: 0.1}
	f := quadratic(mat.NewVector(3).Fill(1), mat.Vector{0.5, 0.6, 0.7})
	res := NewProjectedGradient(c.Project, mat.NewVector(3), Options{MaxIter: 500}).Minimize(f)
	if !near(res.X, mat.Vector{0.5, 0.6, 0.7}, 1e-4) {
		t.Fatalf("interior solution distorted: %v", res.X)
	}
}

// Finite-difference check of the test objectives keeps the test harness
// itself honest.
func TestQuickQuadraticGradient(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		a, c := mat.NewVector(n), mat.NewVector(n)
		for i := range a {
			a[i] = r.Float64() + 0.1
			c[i] = r.NormFloat64()
		}
		q := quadratic(a, c)
		x := mat.NewVector(n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		g := mat.NewVector(n)
		q(x, g, math.Inf(1))
		const h = 1e-6
		for i := range x {
			xp, xm := x.Clone(), x.Clone()
			xp[i] += h
			xm[i] -= h
			fd := (q(xp, nil, math.Inf(1)) - q(xm, nil, math.Inf(1))) / (2 * h)
			if math.Abs(fd-g[i]) > 1e-3*(1+math.Abs(fd)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestProjectInactiveSumIsOnePassClip: when the sum constraint cannot bind
// (Lo ≥ 0 ≥ MinSum) Project clips without summing first; the result must be
// the float the general path — the same box with the smallest positive
// MinSum a sum of clipped coordinates can still meet — returns.
func TestProjectInactiveSumIsOnePassClip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		x := mat.NewVector(1 + r.Intn(20))
		for i := range x {
			x[i] = r.NormFloat64() * 2
		}
		x[r.Intn(len(x))] = 0.5 // keeps the clipped sum above the general path's MinSum
		fast, general := x.Clone(), x.Clone()
		BoxSum{Lo: 0, Hi: 1, MinSum: 0}.Project(fast)
		BoxSum{Lo: 0, Hi: 1, MinSum: math.SmallestNonzeroFloat64}.Project(general)
		for i := range x {
			if math.Float64bits(fast[i]) != math.Float64bits(general[i]) {
				t.Fatalf("x = %v: one-pass clip %v, general path %v", x, fast, general)
			}
		}
	}
}

// near reports whether a and b have the same length and differ by at most
// tol in every element.
func near(a, b mat.Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
