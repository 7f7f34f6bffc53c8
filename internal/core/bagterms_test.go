package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// posBagNLLScalar and negBagNLLScalar are the bag terms as they were before
// mat's likelihood kernels took their lane-wise steps: one fused scalar loop
// per pass, math.Exp and math.Log per instance, the q == 1 shortcut. They
// are the oracle the kernel-based terms must match on every tier.
func posBagNLLScalar(dists, coefs []float64) float64 {
	coefs = coefs[:len(dists)]
	maxA := math.Inf(-1)
	for _, d := range dists {
		if a := -d; a > maxA {
			maxA = a
		}
	}
	if maxA < logTiny {
		var s float64
		for _, d := range dists {
			s += math.Exp(-d - maxA)
		}
		logP := maxA + math.Log(s)
		for j, d := range dists {
			coefs[j] = math.Exp(-d - logP)
		}
		return -logP
	}
	prod := 1.0
	for j, d := range dists {
		p := math.Exp(-d)
		if p > pMax {
			p = pMax
		}
		coefs[j] = p
		prod *= 1 - p
	}
	P := 1 - prod
	if P < 1e-300 {
		P = 1e-300
	}
	for j, p := range coefs {
		loo := prod / (1 - p)
		coefs[j] = p * loo / P
	}
	return -math.Log(P)
}

func negBagNLLScalar(dists, coefs []float64) float64 {
	var f float64
	for j, d := range dists {
		p := math.Exp(-d)
		if p > pMax {
			p = pMax
		}
		q := 1 - p
		if q == 1 {
			coefs[j] = -p
			continue
		}
		f -= math.Log(q)
		coefs[j] = -p / q
	}
	return f
}

// sameResult is bit identity, a NaN's payload aside (see mat's package
// comment: x86 picks a NaN operand's payload by an order the compiler does
// not pin).
func sameResult(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestBagTermsBitIdenticalAcrossTiers holds posBagNLL and negBagNLL — the
// term and every coefficient — to the fused scalar loops on every kernel
// tier, over bags that reach each branch the loops have:
//
//   - the logTiny regime (every d > 30), with instances far enough that the
//     softmax's exp underflows and the kernels hand that group to math.Exp;
//   - the pMax clamp (d = 0, and d < 0);
//   - negBagNLL's q == 1 shortcut (d > ~36.7), which the kernels replace by
//     log(1) = +0 and −p/1;
//   - d = 30, the regime boundary, where the direct form's P is smallest;
//   - NaN and +Inf distances.
//
// The 1e-300 floor on P is not among them because nothing reaches it: the
// direct form runs only when some d_j ≤ 30, so P = 1 − Π(1 − p) ≥
// e^−30 ≈ 9.4e−14, and a NaN makes P NaN, which the floor's < passes over.
// The test asserts that bound on every direct-form bag it draws.
func TestBagTermsBitIdenticalAcrossTiers(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bags := [][]float64{
		{31, 40, 90, 500, 750, 800},   // logTiny; 750 and 800 underflow in the softmax
		{30.5, 30.5, 30.5, 30.5, 31},  // logTiny, ties
		{0, 1.5, 3, 40, 100},          // clamp; far instances
		{0, 0, 0, 0, 0, 0, 0, 0, 0},   // clamp in a full AVX-512 group and a tail
		{-1, -0.5, 0, 2},              // d < 0 clamps too
		{30, 31, 36.7, 36.8, 37, 745}, // the regime boundary; q == 1 from 36.8 on
		{36.7, 36.8, 50, 1000, 1e300}, // q == 1 throughout but the first
		{nan, 1.5, 3},
		{0, nan, inf},
		{inf, inf},
		{inf, 2},
		{5},
		{},
	}
	rng := rand.New(rand.NewSource(53))
	for n := 1; n <= 45; n++ {
		bag := make([]float64, n)
		for j := range bag {
			switch rng.Intn(5) {
			case 0:
				bag[j] = 0
			case 1:
				bag[j] = rng.Float64() * 5
			case 2:
				bag[j] = 30 + rng.Float64()*10
			case 3:
				bag[j] = rng.ExpFloat64() * 100
			default:
				bag[j] = 700 + rng.Float64()*100
			}
		}
		bags = append(bags, bag)
		tiny := make([]float64, n)
		for j := range tiny {
			tiny[j] = 30 + rng.ExpFloat64()*200
		}
		bags = append(bags, tiny)
	}

	eachKernel(t, func(kernel string) {
		for _, bag := range bags {
			for _, pos := range []bool{true, false} {
				want := make([]float64, len(bag))
				got := make([]float64, len(bag))
				var wantF, gotF float64
				if pos {
					wantF = posBagNLLScalar(bag, want)
					gotF = posBagNLL(bag, got, make([]float64, len(bag)))
				} else {
					wantF = negBagNLLScalar(bag, want)
					gotF = negBagNLL(bag, got, make([]float64, len(bag)))
				}
				if !sameResult(gotF, wantF) {
					t.Fatalf("%s: pos=%v term of %v = %#x, scalar loops %#x", kernel, pos, bag, math.Float64bits(gotF), math.Float64bits(wantF))
				}
				for j := range want {
					if !sameResult(got[j], want[j]) {
						t.Fatalf("%s: pos=%v coefs[%d] of %v = %#x, scalar loops %#x", kernel, pos, j, bag, math.Float64bits(got[j]), math.Float64bits(want[j]))
					}
				}
				if pos && len(bag) > 0 && slices.Min(bag) <= -logTiny && !math.IsNaN(wantF) && wantF > -math.Log(9.3e-14) {
					t.Fatalf("direct-form bag %v has P = e^%v, below e^−30: the 1e-300 floor argument fails", bag, -wantF)
				}
			}
		}
	})
}
