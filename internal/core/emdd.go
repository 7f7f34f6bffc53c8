package core

import (
	"math"

	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/workloop"
)

// TrainEMDD maximizes Diverse Density with the EM-DD refinement (Zhang &
// Goldman, 2001) — an extension beyond the paper, included because it is
// the canonical follow-up to the exact algorithm reproduced here and makes
// a useful speed/quality ablation:
//
//	E-step: with the current concept (t, w), select in every bag the single
//	        instance closest to t under the weighted distance;
//	M-step: maximize the all-or-nothing likelihood in which each bag is
//	        represented only by its selected instance:
//	          −Σ⁺ log p_i − Σ⁻ log(1 − p_j),  p = exp(−‖x − t‖²_w)
//
// and iterate until the objective stops improving. Each (t, w) subproblem
// is smooth and much cheaper than the noisy-or objective over all
// instances, which is the point of the method. Multi-start over positive
// instances mirrors Train.
//
// Weight handling follows cfg.Mode exactly as in Train; the returned
// Concept is interchangeable with Train's.
func TrainEMDD(ds *mil.Dataset, cfg Config) (*Concept, error) {
	cfg = cfg.withDefaults()
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	dim := ds.Dim()
	if err := validate(cfg, dim); err != nil {
		return nil, err
	}

	starts := startInstances(ds, cfg.StartBags)

	ex := packExamples(ds)
	type outcome struct {
		theta mat.Vector
		f     float64
		evals int
	}
	results := make([]outcome, len(starts))
	workloop.Run(len(starts), cfg.Parallelism, func(_ int, claim func() (int, bool)) {
		full := newObjective(ex, cfg.Mode)
		sub := newSingleInstanceObjective(dim, ex.nPos, len(ex.bagEnd), cfg.Mode)
		for i, ok := claim(); ok; i, ok = claim() {
			theta, f, evals := emddFromStart(full, sub, cfg, starts[i])
			results[i] = outcome{theta: theta, f: f, evals: evals}
		}
	})

	best := 0
	totalEvals := 0
	for i, oc := range results {
		totalEvals += oc.evals
		if oc.f < results[best].f {
			best = i
		}
	}
	win := results[best]
	emddEvalCount.Add(int64(totalEvals))
	return newConcept(cfg.Mode, dim, win.theta, win.f, len(starts), totalEvals), nil
}

// emddFromStart runs the EM loop from one starting instance and returns the
// final packed θ, the noisy-or objective value at θ (so EM-DD results are
// comparable with Train's), and the evaluation count. full and sub are the
// calling worker's scratch objectives.
func emddFromStart(full *objective, sub *singleInstanceObjective, cfg Config, inst mat.Vector) (mat.Vector, float64, int) {
	dim := full.dim
	theta := mat.NewVector(full.thetaDim())
	initTheta(theta, inst, dim)

	evals := 0
	prev := math.Inf(1)
	const maxEM = 20
	for em := 0; em < maxEM; em++ {
		// E-step: pick each bag's representative under the current θ.
		full.representatives(theta, sub)

		// M-step: optimize the single-instance objective.
		res := newStepper(cfg, dim, theta).Minimize(sub.Eval)
		evals += res.Evals

		// Convergence is judged on the true noisy-or objective so EM
		// cannot fool itself by switching representatives.
		f := full.Eval(res.X, nil, math.Inf(1))
		evals++
		if f >= prev-1e-9 {
			break
		}
		prev = f
		theta = res.X
	}
	return theta, prev, evals
}

// representatives hands sub, for every bag (positives then negatives), the
// instance closest to the current concept under the mode's weighted
// distance, one row per bag; ties keep the earliest instance. For negative
// bags the closest instance is the binding one: it carries the largest
// −log(1 − p) penalty. The distances are the forward pass's, so when θ is
// the point the noisy-or objective was just judged at — every EM round after
// the first — they are not computed again.
func (o *objective) representatives(theta mat.Vector, sub *singleInstanceObjective) {
	o.forward(theta, math.Inf(1))
	lo, llo := 0, 0
	for i, hi := range o.ex.bagEnd {
		best := lo
		bestD := math.Inf(1)
		for r, d := range o.dists[llo:][:hi-lo] {
			if d < bestD {
				bestD, best = d, lo+r
			}
		}
		sub.setRow(i, o.ex.rows[best*o.dim:(best+1)*o.dim])
		lo, llo = hi, o.ex.laneEnd[i]
	}
}

// singleInstanceObjective is the M-step objective: every bag reduced to one
// representative instance. Like exampleSet it keeps the representatives in
// both layouts, tiled for the distance pass and row-major for the gradient.
type singleInstanceObjective struct {
	rows  []float64 // one representative per bag, positives first, row-major
	tiles []float64 // the same rows in mat's tile layout
	nPos  int
	dim   int
	mode  WeightMode

	// Scratch, sized at construction so the optimizer's inner loop stays
	// allocation-free; the objective is not safe for concurrent use.
	dists []float64 // per tile lane; the first len(coefs) are the bags'
	coefs []float64
	q     []float64 // the negatives' 1 − p
	wbuf  mat.Vector
}

func newSingleInstanceObjective(dim, nPos, nBags int, mode WeightMode) *singleInstanceObjective {
	lanes := mat.TileLanes(nBags)
	return &singleInstanceObjective{
		rows:  make([]float64, nBags*dim),
		tiles: make([]float64, lanes*dim),
		nPos:  nPos,
		dim:   dim,
		mode:  mode,
		dists: make([]float64, lanes),
		coefs: make([]float64, nBags),
		q:     make([]float64, nBags-nPos),
		wbuf:  mat.NewVector(dim),
	}
}

// setRow makes row bag i's representative.
func (o *singleInstanceObjective) setRow(i int, row []float64) {
	copy(o.rows[i*o.dim:(i+1)*o.dim], row)
	mat.SetTileRow(o.tiles, i, row)
}

// Eval computes −Σ⁺ log p − Σ⁻ log(1−p) and its gradient. It has no use for
// the bound: one term per bag leaves little of a pass to abandon.
func (o *singleInstanceObjective) Eval(theta, grad mat.Vector, _ float64) float64 {
	t, w := splitTheta(o.mode, o.dim, theta)
	distWeights(o.mode, w, o.wbuf)
	mat.WeightedSqDistTiles(t, o.wbuf, o.tiles, o.dists)
	var f float64
	for j, d := range o.dists[:o.nPos] {
		// −log p = d: gradient coefficient is exactly 1.
		f += d
		o.coefs[j] = 1
	}
	// The negatives' −log(1 − p) and −p/(1 − p), as in negBagNLL, with the
	// sum continuing the positives' in bag order.
	neg := o.coefs[o.nPos:]
	mat.ExpNegClamped(o.dists[o.nPos:len(o.coefs)], pMax, neg, o.q)
	mat.NegRatios(neg, o.q, neg)
	mat.Log(o.q, o.q)
	for _, l := range o.q {
		f -= l
	}
	if grad == nil {
		return f
	}
	grad.Fill(0)
	chainRule(o.mode, grad, t, w, o.wbuf, o.rows, o.coefs)
	return f
}
