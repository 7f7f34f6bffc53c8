package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"milret/internal/mat"
	"milret/internal/mil"
)

// randDataset builds a small random MIL dataset with instance values in a
// moderate range so DD probabilities stay away from the clamping kinks.
func randDataset(r *rand.Rand, dim, nPos, nNeg, instPerBag int) *mil.Dataset {
	mk := func(id string) *mil.Bag {
		b := &mil.Bag{ID: id}
		for j := 0; j < instPerBag; j++ {
			v := mat.NewVector(dim)
			for k := range v {
				v[k] = r.NormFloat64() * 0.7
			}
			b.Instances = append(b.Instances, v)
		}
		return b
	}
	ds := &mil.Dataset{}
	for i := 0; i < nPos; i++ {
		ds.Positive = append(ds.Positive, mk("p"))
	}
	for i := 0; i < nNeg; i++ {
		ds.Negative = append(ds.Negative, mk("n"))
	}
	return ds
}

func fdCheck(t *testing.T, obj *objective, theta mat.Vector, tol float64) {
	t.Helper()
	g := mat.NewVector(len(theta))
	obj.Eval(theta, g, math.Inf(1))
	const h = 1e-6
	for i := range theta {
		tp, tm := theta.Clone(), theta.Clone()
		tp[i] += h
		tm[i] -= h
		fd := (obj.Eval(tp, nil, math.Inf(1)) - obj.Eval(tm, nil, math.Inf(1))) / (2 * h)
		if math.Abs(fd-g[i]) > tol*(1+math.Abs(fd)) {
			t.Fatalf("gradient mismatch at dim %d: analytic %v, finite-diff %v", i, g[i], fd)
		}
	}
}

func TestGradientFiniteDiffOriginal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		ds := randDataset(r, 3, 2, 2, 3)
		obj := newObjective(packExamples(ds), Original)
		theta := mat.NewVector(obj.thetaDim())
		for i := range theta {
			theta[i] = r.NormFloat64() * 0.5
		}
		// Keep weights near one so the w² parametrization is well scaled.
		for i := 3; i < 6; i++ {
			theta[i] = 0.7 + r.Float64()*0.6
		}
		fdCheck(t, obj, theta, 1e-4)
	}
}

func TestGradientFiniteDiffIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		ds := randDataset(r, 4, 2, 2, 3)
		obj := newObjective(packExamples(ds), Identical)
		theta := mat.NewVector(obj.thetaDim())
		for i := range theta {
			theta[i] = r.NormFloat64() * 0.5
		}
		fdCheck(t, obj, theta, 1e-4)
	}
}

func TestGradientFiniteDiffSumConstraint(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		ds := randDataset(r, 3, 2, 2, 3)
		obj := newObjective(packExamples(ds), SumConstraint)
		theta := mat.NewVector(obj.thetaDim())
		for i := 0; i < 3; i++ {
			theta[i] = r.NormFloat64() * 0.5
		}
		for i := 3; i < 6; i++ {
			theta[i] = 0.2 + r.Float64()*0.6 // interior of the box
		}
		fdCheck(t, obj, theta, 1e-4)
	}
}

func TestGradientFiniteDiffTinyBranch(t *testing.T) {
	// Push the concept far from all instances so every p underflows the
	// direct branch; the log-sum-exp branch must still produce a gradient
	// matching finite differences.
	r := rand.New(rand.NewSource(4))
	ds := randDataset(r, 3, 2, 1, 3)
	obj := newObjective(packExamples(ds), Identical)
	theta := mat.Vector{9, -9, 9} // distance² >> 30 from all instances
	fdCheck(t, obj, theta, 1e-3)
}

func TestPosBagNLLSoftmaxBranch(t *testing.T) {
	dists := []float64{500, 510, 505}
	coefs := make([]float64, 3)
	f := posBagNLL(dists, coefs)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		t.Fatalf("far positive bag NLL not finite: %v", f)
	}
	var sum float64
	for _, c := range coefs {
		if c < 0 {
			t.Fatalf("negative softmax coefficient %v", c)
		}
		sum += c
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax coefficients sum to %v, want 1", sum)
	}
	// The nearest instance must dominate.
	if !(coefs[0] > coefs[2] && coefs[2] > coefs[1]) {
		t.Fatalf("coefficient ordering wrong: %v", coefs)
	}
}

func TestPosBagNLLExactHit(t *testing.T) {
	dists := []float64{0, 5}
	coefs := make([]float64, 2)
	f := posBagNLL(dists, coefs)
	// p₀ ≈ 1 ⇒ P ≈ 1 ⇒ −log P ≈ 0.
	if f > 1e-6 {
		t.Fatalf("exact hit should give ~0 NLL, got %v", f)
	}
	for _, c := range coefs {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("non-finite coefficient %v", coefs)
		}
	}
}

func TestNegBagNLLExactHitFinite(t *testing.T) {
	dists := []float64{0}
	coefs := make([]float64, 1)
	f := negBagNLL(dists, coefs)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		t.Fatalf("negative bag on concept point must be finite, got %v", f)
	}
	if f < 10 {
		t.Fatalf("exact negative hit should be strongly penalized, got %v", f)
	}
	if coefs[0] >= 0 {
		t.Fatalf("negative-bag coefficient should push away (negative), got %v", coefs[0])
	}
}

func TestNegBagNLLFarIsCheap(t *testing.T) {
	dists := []float64{200}
	coefs := make([]float64, 1)
	if f := negBagNLL(dists, coefs); f > 1e-10 {
		t.Fatalf("far negative instance should cost ~0, got %v", f)
	}
}

// Property: the objective decreases when the concept moves onto a shared
// positive instance location.
func TestQuickObjectiveFavorsSharedPositives(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 2
		target := mat.Vector{1, -1}
		ds := &mil.Dataset{}
		for i := 0; i < 3; i++ {
			noise := mat.NewVector(dim)
			for k := range noise {
				noise[k] = r.NormFloat64() * 3
			}
			near := target.Clone()
			near[0] += r.NormFloat64() * 0.05
			near[1] += r.NormFloat64() * 0.05
			ds.Positive = append(ds.Positive, &mil.Bag{ID: "p", Instances: []mat.Vector{near, noise}})
		}
		obj := newObjective(packExamples(ds), Identical)
		far := mat.Vector{-4, 4}
		return obj.Eval(target, nil, math.Inf(1)) < obj.Eval(far, nil, math.Inf(1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPosBagNLLEdgeDistancesPinned pins posBagNLL on the inputs the deleted
// leave-one-out zero-counting claimed to guard: d = 0 (p clamps to pMax, so
// 1 − p stays ≥ 1e-10 and the quotient form is exact), d = +Inf (p = 0) and
// d = NaN (poisons the bag, as it always did). The bits are the ones the
// zero-counting implementation produced; it never took its special branch.
func TestPosBagNLLEdgeDistancesPinned(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		dists []float64
		f     uint64 // 0 ⇒ NaN expected
		coefs []uint64
	}{
		{[]float64{0, 1.5, 3}, 0x3dd44a9000033778, []uint64{0x3fe79f4457b7ed01, 0x3db74fdd9eb8e0ec, 0x3d9102c39c8e905d}},
		{[]float64{0, 0}, 0x8000000000000000, []uint64{0x3ddb7cdffff431af, 0x3ddb7cdffff431af}},
		{[]float64{inf, 1.5, 3}, 0x3ff57139c48a8f72, []uint64{0x0, 0x3fe9ea28a3a9e3dc, 0x3fc2e8f5a447c5a6}},
		{[]float64{nan, 1.5, 3}, 0, []uint64{0, 0, 0}},
		{[]float64{0, nan, inf}, 0, []uint64{0, 0, 0}},
		{[]float64{inf, inf}, 0, []uint64{0, 0}},
	}
	for _, tc := range cases {
		coefs := make([]float64, len(tc.dists))
		f := posBagNLL(tc.dists, coefs)
		if tc.f == 0 {
			if !math.IsNaN(f) {
				t.Fatalf("posBagNLL(%v) = %v, want NaN", tc.dists, f)
			}
			for j, c := range coefs {
				if !math.IsNaN(c) {
					t.Fatalf("posBagNLL(%v) coefs[%d] = %v, want NaN", tc.dists, j, c)
				}
			}
			continue
		}
		if math.Float64bits(f) != tc.f {
			t.Fatalf("posBagNLL(%v) = %#x, pinned %#x", tc.dists, math.Float64bits(f), tc.f)
		}
		for j, c := range coefs {
			if math.Float64bits(c) != tc.coefs[j] {
				t.Fatalf("posBagNLL(%v) coefs[%d] = %#x, pinned %#x", tc.dists, j, math.Float64bits(c), tc.coefs[j])
			}
		}
	}
}

// evalBits runs Eval into a fresh gradient and returns the bits of f and of
// every gradient entry.
func evalBits(o *objective, theta mat.Vector) []uint64 {
	g := mat.NewVector(len(theta))
	f := o.Eval(theta, g, math.Inf(1))
	bits := []uint64{math.Float64bits(f)}
	for _, v := range g {
		bits = append(bits, math.Float64bits(v))
	}
	return bits
}

// TestProbeThenGradientReusesForwardPass: a value-only call followed by a
// value+gradient call at an equal θ — the optimizers' pattern after an
// accepted probe — must return the bits of a cold Eval(θ, grad), and a
// different θ in between must invalidate what was remembered.
func TestProbeThenGradientReusesForwardPass(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	ds := randDataset(r, 7, 3, 2, 5)
	ex := packExamples(ds)
	for _, mode := range []WeightMode{Original, Identical, SumConstraint} {
		mk := func() mat.Vector {
			theta := mat.NewVector(newObjective(ex, mode).thetaDim())
			for i := range theta {
				theta[i] = 0.2 + 0.6*r.Float64()
			}
			return theta
		}
		a, b := mk(), mk()
		coldA := evalBits(newObjective(ex, mode), a)
		coldB := evalBits(newObjective(ex, mode), b)

		o := newObjective(ex, mode)
		fa := o.Eval(a, nil, math.Inf(1))
		if math.Float64bits(fa) != coldA[0] {
			t.Fatalf("%v: probe value %x, cold %x", mode, math.Float64bits(fa), coldA[0])
		}
		// Equal bits in a different slice: the memo keys on values, not on
		// the slice handed in.
		if got := evalBits(o, a.Clone()); !equalBits(got, coldA) {
			t.Fatalf("%v: probe→gradient at equal θ differs from a cold evaluation", mode)
		}
		// A different θ in between invalidates: b must not be answered from
		// a's forward pass, nor a from b's afterwards.
		o.Eval(a, nil, math.Inf(1))
		if got := evalBits(o, b); !equalBits(got, coldB) {
			t.Fatalf("%v: evaluation after a θ change reused a stale forward pass", mode)
		}
		if got := evalBits(o, a); !equalBits(got, coldA) {
			t.Fatalf("%v: returning to the earlier θ reused a stale forward pass", mode)
		}
		// One flipped low bit is a different θ.
		a2 := a.Clone()
		a2[0] = math.Float64frombits(math.Float64bits(a2[0]) ^ 1)
		o.Eval(a, nil, math.Inf(1))
		if got := evalBits(o, a2); !equalBits(got, evalBits(newObjective(ex, mode), a2)) {
			t.Fatalf("%v: a one-ulp θ change was answered from the memo", mode)
		}
	}
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRepresentativesPicksNearestInstance: EM-DD's E-step selection reads
// the forward pass's distances; it must agree with a direct per-instance
// scan, ties to the earliest instance.
func TestRepresentativesPicksNearestInstance(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	ds := randDataset(r, 6, 2, 2, 4)
	ds.Positive[1].Instances[3] = ds.Positive[1].Instances[1].Clone() // an exact tie
	ex := packExamples(ds)
	o := newObjective(ex, SumConstraint)
	theta := mat.NewVector(o.thetaDim())
	copy(theta[:o.dim], ds.Positive[1].Instances[1])
	theta[o.dim:].Fill(0.5)
	sub := newSingleInstanceObjective(o.dim, 2, 4, SumConstraint)
	o.representatives(theta, sub)
	bags := append(append([]*mil.Bag{}, ds.Positive...), ds.Negative...)
	for i, b := range bags {
		best, bestD := 0, math.Inf(1)
		for j, inst := range b.Instances {
			if d := mat.WeightedSqDist(theta[:o.dim], inst, theta[o.dim:]); d < bestD {
				best, bestD = j, d
			}
		}
		if !slices.Equal(sub.rows[i*o.dim:(i+1)*o.dim], b.Instances[best]) {
			t.Fatalf("bag %d: representative is not instance %d", i, best)
		}
	}
	// The tiled copy the distance pass reads holds the same rows: the M-step
	// objective scores each representative as the single-vector kernel does.
	sub.Eval(theta, nil, math.Inf(1))
	for i := range bags {
		want := mat.WeightedSqDistBlocked(theta[:o.dim], sub.rows[i*o.dim:(i+1)*o.dim], theta[o.dim:])
		if math.Float64bits(sub.dists[i]) != math.Float64bits(want) {
			t.Fatalf("bag %d: M-step distance %v, its row-major representative is at %v", i, sub.dists[i], want)
		}
	}
}
