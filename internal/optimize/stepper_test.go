package optimize

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"milret/internal/mat"
)

// chain is the extended Rosenbrock function in len(x) dimensions: curved
// enough that neither method is done in a few dozen iterations.
// It returns a fresh Func each call, and each Func keeps what core's
// objective keeps — the point and value of its last evaluation — so a test
// that resumes a run with a new instance also resumes it with a cold memo.
func chain() Func {
	var last mat.Vector
	var lastF float64
	return func(x, grad mat.Vector, _ float64) float64 {
		if grad == nil && last != nil && slices.Equal(x, last) {
			return lastF
		}
		if grad != nil {
			grad.Fill(0)
		}
		var f float64
		for i := 0; i+1 < len(x); i++ {
			a, b := x[i], x[i+1]
			f += (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
			if grad != nil {
				grad[i] += -2*(1-a) - 400*a*(b-a*a)
				grad[i+1] += 200 * (b - a*a)
			}
		}
		if last == nil {
			last = mat.NewVector(len(x))
		}
		copy(last, x)
		lastF = f
		return f
	}
}

// stepperMethods builds each method's stepper from a start; the projected
// one runs inside a box whose sum constraint is active at the minimum.
type stepperMethod struct {
	name string
	mk   func(x0 mat.Vector, opt Options) *Stepper
}

var stepperMethods = []stepperMethod{
	{"lbfgs", NewLBFGS},
	{"projected-gradient", func(x0 mat.Vector, opt Options) *Stepper {
		box := BoxSum{Lo: -2, Hi: 0.9, MinSum: 0.5 * float64(len(x0))}
		return NewProjectedGradient(box.Project, x0, opt)
	}},
}

func sameResult(a, b Result) bool {
	if a.Iters != b.Iters || a.Evals != b.Evals || a.Converged != b.Converged ||
		math.Float64bits(a.F) != math.Float64bits(b.F) {
		return false
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			return false
		}
	}
	return true
}

// TestStepperChunksAreOneRun: a run advanced in pieces — fixed (3, 11, cap)
// or random, every piece handed a different Func instance of the objective —
// is the one-call run, bit for bit and evaluation for evaluation.
func TestStepperChunksAreOneRun(t *testing.T) {
	const n = 12
	for _, m := range stepperMethods {
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			x0 := mat.NewVector(n)
			for i := range x0 {
				x0[i] = r.NormFloat64()
			}
			// Even seeds stop on the cap, odd ones run until a tolerance
			// does: both endings must survive the chunking.
			opt := Options{MaxIter: 40 + r.Intn(40)}
			if seed%2 == 1 {
				opt.MaxIter, opt.StepTol = 50000, 1e-4
			}

			one := m.mk(x0, opt)
			one.Run(chain(), opt.MaxIter)
			want := one.Result()
			if want.Converged != (seed%2 == 1) {
				t.Fatalf("%s seed %d: Converged = %v after %d iterations", m.name, seed, want.Converged, want.Iters)
			}

			fixed := m.mk(x0, opt)
			for _, upTo := range []int{3, 11, opt.MaxIter} {
				fixed.Run(chain(), upTo)
				if got := fixed.Result().Iters; got > upTo {
					t.Fatalf("%s seed %d: Run(%d) went to iteration %d", m.name, seed, upTo, got)
				}
			}
			if got := fixed.Result(); !sameResult(got, want) {
				t.Errorf("%s seed %d: Run(3); Run(11); Run(cap) = %+v, one run = %+v", m.name, seed, got, want)
			}

			random := m.mk(x0, opt)
			for upTo := 0; upTo < opt.MaxIter && !random.Result().Converged; {
				upTo += 1 + r.Intn(15)
				random.Run(chain(), upTo)
			}
			if got := random.Result(); !sameResult(got, want) {
				t.Errorf("%s seed %d: random chunks = %+v, one run = %+v", m.name, seed, got, want)
			}

			// A finished run stays where it is.
			random.Run(chain(), opt.MaxIter)
			if got := random.Result(); !sameResult(got, want) {
				t.Errorf("%s seed %d: Run on a finished run moved it: %+v", m.name, seed, got)
			}
		}
	}
}

// TestStepperRunAllocatesNothing: everything a run needs — probe, direction,
// the L-BFGS ring — exists after construction, including across the point
// where the ring wraps and starts dropping its oldest pair.
func TestStepperRunAllocatesNothing(t *testing.T) {
	x0 := mat.NewVector(12)
	for i := range x0 {
		x0[i] = math.Sin(float64(i))
	}
	for _, m := range stepperMethods {
		s := m.mk(x0, Options{MaxIter: 1000})
		f := chain()
		upTo := 0
		allocs := testing.AllocsPerRun(20, func() {
			upTo += 3
			s.Run(f, upTo)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per Run", m.name, allocs)
		}
		if res := s.Result(); res.Iters != upTo || res.Converged {
			t.Errorf("%s: run ended early (%+v), the measurement covers less than it claims", m.name, res)
		}
	}
}

// walled is chain's objective — a sum of non-negative terms — between two
// walls: a coordinate above hi adds a +Inf term and one below lo a NaN term,
// so line searches that overshoot meet both. With honour set a value-only
// evaluation uses its bound the way core's objective does: it returns the
// running sum as soon as that exceeds the bound. seen counts what the probes
// ran into.
type wallStats struct{ abandoned, nan, inf int }

func walled(lo, hi float64, honour bool, seen *wallStats) Func {
	return func(x, grad mat.Vector, bound float64) float64 {
		if grad != nil {
			grad.Fill(0)
		}
		var f float64
		for i := 0; i+1 < len(x); i++ {
			a, b := x[i], x[i+1]
			f += (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
			switch {
			case a > hi:
				f += math.Inf(1)
			case a < lo:
				f += math.NaN()
			}
			if grad != nil {
				grad[i] += -2*(1-a) - 400*a*(b-a*a)
				grad[i+1] += 200 * (b - a*a)
			} else if honour && f > bound {
				seen.abandoned++
				return f
			}
		}
		if grad == nil {
			switch {
			case math.IsNaN(f):
				seen.nan++
			case math.IsInf(f, 1):
				seen.inf++
			}
		}
		return f
	}
}

// TestAbandonedProbesChangeNoStep: an evaluator that stops a probe once its
// partial sum of non-negative terms has passed the bound takes every method
// through the iterates, values and evaluation counts of one that always
// finishes — iteration by iteration, with +Inf and NaN terms among the ones
// the probes meet.
func TestAbandonedProbesChangeNoStep(t *testing.T) {
	const n = 12
	walls := map[string][2]float64{
		"lbfgs":              {-0.6, 1.02},
		"projected-gradient": {-0.6, 0.85}, // inside the box below
	}
	// The projected method gets a box the starts already lie in, so that no
	// run begins on a wall.
	methods := append(stepperMethods[:1:1], stepperMethod{"projected-gradient", func(x0 mat.Vector, opt Options) *Stepper {
		return NewProjectedGradient(BoxSum{Lo: -2, Hi: 0.9, MinSum: -2 * n}.Project, x0, opt)
	}})
	for _, m := range methods {
		var full, stop wallStats
		for seed := int64(0); seed < 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			x0 := mat.NewVector(n)
			for i := range x0 {
				x0[i] = r.Float64() - 0.5 // between the walls
			}
			opt := Options{MaxIter: 60}
			wall := walls[m.name]
			want, got := m.mk(x0, opt), m.mk(x0, opt)
			for upTo := 1; upTo <= opt.MaxIter; upTo++ {
				want.Run(walled(wall[0], wall[1], false, &full), upTo)
				got.Run(walled(wall[0], wall[1], true, &stop), upTo)
				if !sameResult(got.Result(), want.Result()) {
					t.Fatalf("%s seed %d, iteration %d: abandoning run %+v, full run %+v", m.name, seed, upTo, got.Result(), want.Result())
				}
			}
		}
		t.Logf("%s: full run met %+v, abandoning run %+v", m.name, full, stop)
		if stop.abandoned == 0 || full.nan == 0 || full.inf == 0 {
			t.Errorf("%s: %d probes abandoned, %d NaN and %d +Inf values met — the test does not cover what it claims", m.name, stop.abandoned, full.nan, full.inf)
		}
	}
}
