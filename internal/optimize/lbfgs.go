package optimize

import (
	"math"

	"milret/internal/mat"
)

// LBFGS minimizes f from x0 with the limited-memory BFGS method (two-loop
// recursion, Armijo backtracking). It is the default minimizer for the
// unconstrained Diverse Density modes (Original and Identical weights),
// where the high-dimensional (t, w) search of §2.2.2 makes plain gradient
// descent painfully slow.
func LBFGS(f Func, x0 mat.Vector, opt Options) Result {
	opt = opt.withDefaults()
	n := len(x0)
	x := x0.Clone()
	g := mat.NewVector(n)
	gPrev := mat.NewVector(n)
	xPrev := mat.NewVector(n)
	d := mat.NewVector(n)
	xt := mat.NewVector(n)

	// History ring buffers for the two-loop recursion.
	m := opt.Memory
	sHist := make([]mat.Vector, 0, m)
	yHist := make([]mat.Vector, 0, m)
	rhoHist := make([]float64, 0, m)
	alpha := make([]float64, m)

	res := Result{}
	fx := f(x, g)
	res.Evals++

	for it := 0; it < opt.MaxIter; it++ {
		res.Iters = it + 1
		if g.MaxAbs() < opt.GradTol {
			res.Converged = true
			break
		}

		// d = −H·g via two-loop recursion over stored (s, y) pairs.
		copy(d, g)
		for i := len(sHist) - 1; i >= 0; i-- {
			alpha[i] = rhoHist[i] * sHist[i].Dot(d)
			d.AddScaled(-alpha[i], yHist[i])
		}
		if k := len(sHist); k > 0 {
			// Initial Hessian scaling γ = sᵀy / yᵀy.
			gamma := sHist[k-1].Dot(yHist[k-1]) / yHist[k-1].Dot(yHist[k-1])
			d.Scale(gamma)
		}
		for i := 0; i < len(sHist); i++ {
			beta := rhoHist[i] * yHist[i].Dot(d)
			d.AddScaled(alpha[i]-beta, sHist[i])
		}
		d.Scale(-1)

		slope := g.Dot(d)
		if slope >= 0 {
			// Bad curvature information: fall back to steepest descent.
			copy(d, g)
			d.Scale(-1)
			slope = g.Dot(d)
			sHist, yHist, rhoHist = sHist[:0], yHist[:0], rhoHist[:0]
		}

		t0 := 1.0
		if len(sHist) == 0 {
			// First step (or after a reset): scale to a unit-ish move.
			if ma := d.MaxAbs(); ma > 0 {
				t0 = math.Min(1, opt.InitStep/ma)
			}
		}
		t, ev := armijo(f, x, d, fx, slope, t0, opt.StepTol, xt)
		res.Evals += ev
		if t == 0 {
			res.Converged = true
			break
		}

		copy(xPrev, x)
		copy(gPrev, g)
		x.AddScaled(t, d)
		fx = f(x, g)
		res.Evals++

		// Store the curvature pair if it is numerically useful.
		s := x.Clone().Sub(xPrev)
		y := g.Clone().Sub(gPrev)
		if sy := s.Dot(y); sy > 1e-10 {
			if len(sHist) == m {
				copy(sHist, sHist[1:])
				copy(yHist, yHist[1:])
				copy(rhoHist, rhoHist[1:])
				sHist = sHist[:m-1]
				yHist = yHist[:m-1]
				rhoHist = rhoHist[:m-1]
			}
			sHist = append(sHist, s)
			yHist = append(yHist, y)
			rhoHist = append(rhoHist, 1/sy)
		}
	}
	res.X = x
	res.F = fx
	return res
}
