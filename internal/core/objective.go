// Package core implements the paper's primary contribution: the Diverse
// Density (DD) multiple-instance learning algorithm (chapter 2) with the
// weight-factor control schemes of §3.6. Training maximizes, over a concept
// point t and per-dimension weights w, the noisy-or likelihood
//
//	DD(t, w) = Π_i Pr(t|B⁺_i) · Π_i Pr(t|B⁻_i)
//	Pr(t|B⁺_i) = 1 − Π_j (1 − exp(−‖B⁺_ij − t‖²_w))
//	Pr(t|B⁻_i) = Π_j (1 − exp(−‖B⁻_ij − t‖²_w))
//
// by minimizing −log DD with multi-start gradient optimization: one start
// per instance of (a subset of) the positive bags (§2.2.2, §4.3).
//
// Train runs the starts as a successive-halving race over resumable
// optimize.Steppers: all of them for a short rung, then at each barrier the
// best third by objective for a rung three times longer, the last few to the
// iteration cap. A surviving start computes exactly what it would have
// computed alone and barriers decide from complete results, so a trained
// concept is still a pure function of its request on every kernel and at
// every Parallelism; the schedule is two unexported constants. The driver
// with no barriers is the exhaustive multi-start, kept for the tests as the
// race's oracle. TrainEMDD is a separate, exhaustive trainer.
package core

import (
	"math"

	"milret/internal/mat"
	"milret/internal/mil"
)

// WeightMode selects how the feature weights w are treated during DD
// maximization (§3.6). The modes differ in the distance parametrization and
// in the optimizer they require.
type WeightMode int

const (
	// Original is the unmodified DD algorithm: distance Σ w_k²(t_k−x_k)²,
	// both t and w free (§2.2.1). With few negatives it tends to push most
	// weights to zero — the overfitting the paper sets out to fix.
	Original WeightMode = iota
	// Identical forces every weight to one and maximizes over t only
	// (§3.6.1).
	Identical
	// 2 was the §3.6.2 α-hack (the weight gradient divided by α). It stays
	// unassigned: byte(mode) is in every cache key and concept-cache
	// sidecar frame, so the surviving modes keep their numbers.
	_
	// SumConstraint optimizes w directly under 0 ≤ w_k ≤ 1 and
	// Σ w_k ≥ β·n (§3.6.3), replacing the paper's CFSQP with projected
	// gradient descent. β=0 is unconstrained (like Original but with the
	// box); β=1 forces all weights to one.
	SumConstraint
)

func (m WeightMode) String() string {
	switch m {
	case Original:
		return "original"
	case Identical:
		return "identical"
	case SumConstraint:
		return "sum-constraint"
	}
	return "unknown"
}

// pMax keeps instance probabilities strictly below one so that negative-bag
// terms −log(1 − p) stay finite even when the concept point lands exactly on
// a negative instance.
const pMax = 1 - 1e-10

// logTiny is the log-probability below which the noisy-or for a positive
// bag is computed in log space (all instance probabilities so small that
// 1 − p rounds to 1 in float64).
const logTiny = -30.0

// exampleSet is a training problem's example set packed for the hot loop:
// every instance of every bag (positives first, each group in dataset order),
// stored twice, because the two kernels of an evaluation read it in opposite
// directions. The distance pass sums over dimensions for each row and wants a
// row per vector lane: tiles holds the rows in mat's tile layout
// (mat.TileRows rows, dimension-major), each bag padded to whole tiles so a
// bag is a run of tiles and the forward pass can score one bag at a time.
// The gradient pass sums over rows for each dimension and wants a dimension
// per lane: rows holds them row-major and dense. Both are built once per
// training run and shared, read-only, by every optimization start; for the
// served shape (five bags of 40 × 100) that is two blocks of 160 kB.
type exampleSet struct {
	dim     int
	rows    []float64 // all instances, row-major
	tiles   []float64 // the same instances, tiled, each bag from a tile boundary
	nRows   int       // len(rows) / dim
	nLanes  int       // len(tiles) / dim: the rows and their padding
	bagEnd  []int     // bagEnd[i] = index one past bag i's last row
	laneEnd []int     // laneEnd[i] = index one past the last lane of bag i's tiles
	nPos    int       // bags [0, nPos) are positive
}

// maxBag returns the most instances any bag has.
func (ex *exampleSet) maxBag() int {
	most, lo := 0, 0
	for _, hi := range ex.bagEnd {
		most = max(most, hi-lo)
		lo = hi
	}
	return most
}

func packExamples(ds *mil.Dataset) *exampleSet {
	ex := &exampleSet{dim: ds.Dim(), nPos: len(ds.Positive)}
	bags := append(append([]*mil.Bag(nil), ds.Positive...), ds.Negative...)
	for _, b := range bags {
		ex.nRows += len(b.Instances)
		ex.bagEnd = append(ex.bagEnd, ex.nRows)
		ex.nLanes += mat.TileLanes(len(b.Instances))
		ex.laneEnd = append(ex.laneEnd, ex.nLanes)
	}
	ex.rows = make([]float64, 0, ex.nRows*ex.dim)
	ex.tiles = make([]float64, ex.nLanes*ex.dim)
	lane := 0
	for i, b := range bags {
		for j, inst := range b.Instances {
			ex.rows = append(ex.rows, inst...)
			mat.SetTileRow(ex.tiles, lane+j, inst)
		}
		lane = ex.laneEnd[i]
	}
	return ex
}

// objective captures one DD training problem: the packed example set, the
// weight mode and the layout of the optimization variable θ.
//
// Layouts: Identical packs θ = t (dim n); all other modes pack θ = [t; w]
// (dim 2n). Original interprets w through w² in the distance;
// SumConstraint uses w directly (its projection keeps w ∈ [0,1]).
//
// An evaluation is two passes. The forward pass goes bag by bag — the bag's
// instance distances, its likelihood term and the coefficients ∂f/∂d_ij,
// then f += the term — and the gradient pass folds the coefficients through
// the chain rule. The results of a completed forward pass are remembered
// together with the θ that produced them, so a call at a bitwise-equal θ
// skips straight to the gradient pass. That is exactly the call every
// minimizer in internal/optimize issues after an accepted line-search probe
// — f(x+t·d, nil) then f(x+t·d, g) — and the remembered values are the ones
// the second call would recompute, so the result is the same to the bit.
//
// A value-only evaluation stops at the first bag after which the running sum
// exceeds the caller's bound (optimize.Func). Every bag's term is a −log of a
// probability, so it is ≥ 0 or NaN, and rounding is monotone: adding a
// non-negative float never gives less than there was. A prefix above the
// bound therefore means the full sum is above it too (or NaN, which a line
// search rejects just the same), and a NaN prefix compares greater than
// nothing and runs to the end. The check stands between bags, never inside
// one: a positive bag's term is not a sum over its instances. A pass that
// stops early leaves nothing remembered.
type objective struct {
	ex   *exampleSet
	dim  int
	mode WeightMode

	// Scratch and memo, sized at construction; objective is not safe for
	// concurrent use — each training worker owns its own, for its lifetime
	// (allocating one per start would be most of a training run's garbage).
	dists []float64  // per tile lane: d_ij at memoTheta, indexed like ex.tiles
	coefs []float64  // per instance: ∂f/∂d_ij at memoTheta, indexed like ex.rows
	q     []float64  // one bag's 1 − p_ij, scratch of the bag terms
	wbuf  mat.Vector // effective distance weights W at memoTheta
	memoF float64    // f(memoTheta)

	memoTheta mat.Vector // θ of the last forward pass
	memoValid bool
}

func newObjective(ex *exampleSet, mode WeightMode) *objective {
	o := &objective{ex: ex, dim: ex.dim, mode: mode}
	o.dists = make([]float64, ex.nLanes)
	o.coefs = make([]float64, ex.nRows)
	o.q = make([]float64, ex.maxBag())
	o.wbuf = mat.NewVector(o.dim)
	o.memoTheta = mat.NewVector(o.thetaDim())
	return o
}

// thetaDim returns the optimization-variable dimension for the mode.
func (o *objective) thetaDim() int { return thetaDim(o.mode, o.dim) }

func thetaDim(mode WeightMode, dim int) int {
	if mode == Identical {
		return dim
	}
	return 2 * dim
}

// splitTheta returns the t and w views of θ. For Identical, w is nil
// (all-ones semantics).
func splitTheta(mode WeightMode, dim int, theta mat.Vector) (t, w mat.Vector) {
	if mode == Identical {
		return theta, nil
	}
	return theta[:dim], theta[dim:]
}

// distWeights fills buf with the effective distance weights W_k for the
// packed w (W = w² for Original, W = w for SumConstraint, all-ones
// for Identical).
func distWeights(mode WeightMode, w, buf mat.Vector) {
	switch mode {
	case Identical:
		buf.Fill(1)
	case SumConstraint:
		copy(buf, w)
	default: // Original
		for k, v := range w {
			buf[k] = v * v
		}
	}
}

// chainRule folds per-instance coefficients ∂f/∂d through the distance's
// partial derivatives into grad, in row order:
// ∂d/∂t_k = 2 W_k (t_k − x_k); Original ∂d/∂w_k = 2 w_k (t_k − x_k)²;
// SumConstraint ∂d/∂w_k = (t_k − x_k)²; Identical has no weight part. The
// per-dimension loop itself lives in mat.GradAccumRows.
func chainRule(mode WeightMode, grad, t, w, W mat.Vector, rows, coefs []float64) {
	dim := len(t)
	switch mode {
	case Identical:
		mat.GradAccumRows(grad, nil, t, W, nil, rows, coefs, 2, 0)
	case SumConstraint:
		mat.GradAccumRows(grad[:dim], grad[dim:], t, W, nil, rows, coefs, 2, 1)
	default: // Original
		mat.GradAccumRows(grad[:dim], grad[dim:], t, W, w, rows, coefs, 2, 2)
	}
}

// sameBits reports whether a and b hold identical float64 bit patterns.
func sameBits(a, b mat.Vector) bool {
	for i, x := range a {
		if math.Float64bits(x) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// forward returns f(θ), leaving dists, coefs, wbuf and memoF current for
// theta — or, once the sum over the bags so far exceeds bound, returns that
// partial sum and leaves nothing remembered. A pass at the θ of the last
// completed one is answered from what that one left.
func (o *objective) forward(theta mat.Vector, bound float64) float64 {
	if o.memoValid && sameBits(theta, o.memoTheta) {
		return o.memoF
	}
	o.memoValid = false
	ex := o.ex
	t, w := splitTheta(o.mode, o.dim, theta)
	distWeights(o.mode, w, o.wbuf)
	var f float64
	lo, llo := 0, 0
	for i, hi := range ex.bagEnd {
		lhi := ex.laneEnd[i]
		d := o.dists[llo:lhi]
		mat.WeightedSqDistTiles(t, o.wbuf, ex.tiles[llo*o.dim:lhi*o.dim], d)
		if i < ex.nPos {
			f += posBagNLL(d[:hi-lo], o.coefs[lo:hi], o.q)
		} else {
			f += negBagNLL(d[:hi-lo], o.coefs[lo:hi], o.q)
		}
		if f > bound {
			return f
		}
		lo, llo = hi, lhi
	}
	o.memoF = f
	copy(o.memoTheta, theta)
	o.memoValid = true
	return f
}

// Eval computes f(θ) = −log DD and, when grad is non-nil, its gradient.
// This is the optimize.Func the minimizers consume; only a value-only call
// has a use for bound.
func (o *objective) Eval(theta, grad mat.Vector, bound float64) float64 {
	if grad == nil {
		return o.forward(theta, bound)
	}
	f := o.forward(theta, math.Inf(1))
	grad.Fill(0)
	t, w := splitTheta(o.mode, o.dim, theta)
	chainRule(o.mode, grad, t, w, o.wbuf, o.ex.rows, o.coefs)
	return f
}

// posBagNLL returns −log Pr(t|B⁺) = −log(1 − Π_j (1 − p_j)) for p_j =
// exp(−d_j) and fills coefs[j] = ∂(−log P)/∂d_j = p_j·Π_{l≠j}(1−p_l)/P.
// q is scratch of at least len(dists).
//
// Two regimes keep the computation stable. When every p_j is tiny
// (max −d_j < logTiny), 1 − p_j rounds to 1 in float64, so P is computed as
// Σ p_j via log-sum-exp and the coefficients reduce to a softmax over −d_j.
// Otherwise the noisy-or is computed directly with p clamped below one: the
// clamp keeps every 1 − p_j ≥ 1e-10, so the leave-one-out products are
// plain quotients Π/(1 − p_j).
//
// The lane-wise steps are mat's likelihood kernels — math.Exp and math.Log
// per element, the clamp, the complements and the quotients, 4 or 8 at a
// time on a SIMD tier, with the bits of the scalar statements. What depends
// on order stays here, serial and in instance order: the max, the sum of
// the softmax, the product Π (1 − p_j).
func posBagNLL(dists, coefs, q []float64) float64 {
	coefs = coefs[:len(dists)]
	q = q[:len(dists)]
	maxA := math.Inf(-1)
	for _, d := range dists {
		if a := -d; a > maxA {
			maxA = a
		}
	}
	if maxA < logTiny {
		// log P ≈ logΣexp(−d_j); coef_j = exp(−d_j − logP) (softmax).
		mat.ExpNeg(dists, maxA, coefs)
		var s float64
		for _, e := range coefs {
			s += e
		}
		logP := maxA + math.Log(s)
		mat.ExpNeg(dists, logP, coefs)
		return -logP
	}

	// Direct evaluation with clamping; coefs holds p_j and q holds 1 − p_j
	// between the passes so each exp is taken once.
	mat.ExpNegClamped(dists, pMax, coefs, q)
	prod := 1.0
	for _, qj := range q {
		prod *= qj
	}
	P := 1 - prod
	if P < 1e-300 {
		P = 1e-300
	}
	mat.LeaveOneOutRatios(coefs, q, prod, P, coefs)
	return -math.Log(P)
}

// negBagNLL returns −log Pr(t|B⁻) = −Σ_j log(1 − p_j) and fills
// coefs[j] = ∂/∂d_j = −p_j/(1 − p_j); q is scratch of at least len(dists).
// Probabilities are clamped below one so a concept point sitting exactly on
// a negative instance yields a large but finite penalty. An instance more
// than ~37 away has 1 − p_j = 1: its log is +0, which the sum keeps as it
// is, and its coefficient −p_j/1 is −p_j. As in posBagNLL the kernels do
// the lane-wise steps and the sum stays serial.
func negBagNLL(dists, coefs, q []float64) float64 {
	coefs = coefs[:len(dists)]
	q = q[:len(dists)]
	mat.ExpNegClamped(dists, pMax, coefs, q)
	mat.NegRatios(coefs, q, coefs)
	mat.Log(q, q)
	var f float64
	for _, l := range q {
		f -= l
	}
	return f
}
