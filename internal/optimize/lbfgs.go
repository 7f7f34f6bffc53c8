package optimize

import (
	"math"

	"milret/internal/mat"
)

// history is the L-BFGS curvature memory: the last m accepted (s, y) pairs
// and ρ = 1/sᵀy, oldest first from head, in a ring of m+1 preallocated
// slots. The slot past the newest pair is always free, so a candidate pair
// is built in place and either admitted — dropping the oldest when m are
// held — or left to be overwritten; nothing is copied or allocated.
type history struct {
	s, y        []mat.Vector
	rho         []float64
	alpha       []float64 // two-loop scratch, indexed oldest first
	head, count int
}

func newHistory(m, n int) *history {
	h := &history{
		s:     make([]mat.Vector, m+1),
		y:     make([]mat.Vector, m+1),
		rho:   make([]float64, m+1),
		alpha: make([]float64, m),
	}
	for i := range h.s {
		h.s[i] = mat.NewVector(n)
		h.y[i] = mat.NewVector(n)
	}
	return h
}

// slot maps the i-th held pair, oldest first, to its ring position;
// slot(count) is the free one.
func (h *history) slot(i int) int { return (h.head + i) % len(h.s) }

// admit makes the pair in the free slot the newest.
func (h *history) admit(sy float64) {
	h.rho[h.slot(h.count)] = 1 / sy
	if h.count == len(h.alpha) {
		h.head = h.slot(1)
	} else {
		h.count++
	}
}

// NewLBFGS prepares a limited-memory BFGS run (two-loop recursion, Armijo
// backtracking) from x0. It is the minimizer for the unconstrained
// Diverse Density modes (Original and Identical weights), where the
// high-dimensional (t, w) search of §2.2.2 makes plain gradient descent
// painfully slow.
func NewLBFGS(x0 mat.Vector, opt Options) *Stepper {
	s := newStepper(lbfgsStep, x0, opt)
	s.d = mat.NewVector(len(x0))
	s.hist = newHistory(lbfgsMemory, len(x0))
	return s
}

func lbfgsStep(s *Stepper, f Func) bool {
	h, d := s.hist, s.d
	if s.g.MaxAbs() < s.opt.GradTol {
		return false
	}

	// d = −H·g via two-loop recursion over stored (s, y) pairs.
	copy(d, s.g)
	for i := h.count - 1; i >= 0; i-- {
		k := h.slot(i)
		h.alpha[i] = h.rho[k] * h.s[k].Dot(d)
		d.AddScaled(-h.alpha[i], h.y[k])
	}
	if h.count > 0 {
		// Initial Hessian scaling γ = sᵀy / yᵀy.
		k := h.slot(h.count - 1)
		d.Scale(h.s[k].Dot(h.y[k]) / h.y[k].Dot(h.y[k]))
	}
	for i := 0; i < h.count; i++ {
		k := h.slot(i)
		beta := h.rho[k] * h.y[k].Dot(d)
		d.AddScaled(h.alpha[i]-beta, h.s[k])
	}
	d.Scale(-1)

	slope := s.g.Dot(d)
	if slope >= 0 {
		// Bad curvature information: fall back to steepest descent.
		copy(d, s.g)
		d.Scale(-1)
		slope = s.g.Dot(d)
		h.count = 0
	}

	t0 := 1.0
	if h.count == 0 {
		// First step (or after a reset): scale to a unit-ish move.
		if ma := d.MaxAbs(); ma > 0 {
			t0 = math.Min(1, initStep/ma)
		}
	}
	t := s.armijo(f, slope, t0)
	if t == 0 {
		return false
	}

	// The candidate pair s = x⁺ − x, y = g⁺ − g is built in the free slot,
	// which holds x and g across the move.
	free := h.slot(h.count)
	sv, yv := h.s[free], h.y[free]
	copy(sv, s.x)
	copy(yv, s.g)
	s.x.AddScaled(t, d)
	s.fx = s.eval(f)
	for i := range sv {
		sv[i] = s.x[i] - sv[i]
		yv[i] = s.g[i] - yv[i]
	}
	// Store the curvature pair if it is numerically useful.
	if sy := sv.Dot(yv); sy > 1e-10 {
		h.admit(sy)
	}
	return true
}
