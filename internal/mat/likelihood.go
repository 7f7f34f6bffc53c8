// The likelihood kernels: the lane-wise parts of the noisy-or terms of
// Diverse Density training (internal/core's posBagNLL and negBagNLL) — the
// instance probabilities e^{−d}, their clamp and complement, the logs and
// the per-instance coefficients. They are the third training kernel family
// beside the two of grad.go, with the same contract: a scalar oracle and
// AVX2 and AVX-512 bodies that return its bits, behind the dispatch in
// kernel_dispatch.go.
//
// Here the oracle is the standard library itself: out[j] = math.Exp(x) or
// math.Log(x), element by element. On amd64 both are straight-line assembly
// (math's exp_amd64.s and log_amd64.s) of correctly rounded scalar
// operations, so the bodies in likelihood_amd64.s transcribe them operation
// for operation, a lane per element. That makes the exp bodies the one
// place in this package that fuses: math.Exp takes Shibata's FMA form when
// the CPU has AVX and FMA, and the bodies copy its VFMADDs — which is why
// they run only when haveFMA says math.Exp does the same (on a host without
// it, math.Exp's unfused form is the only one, and the scalar loop runs).
// The log bodies, like log_amd64.s, never fuse.
//
// A lane that would leave the straight-line path — for exp a result
// exponent outside the normal range (NaN, ±Inf, overflow, an underflow to a
// subnormal or zero), for log x ≤ 0, +Inf or NaN — stops the body before it
// stores that lane's group of four or eight; the scalar loop computes the
// group with math.Exp or math.Log and the body resumes after it. The
// arithmetic kernels (the clamp, 1 − p and the two ratios) have no such
// path. Every output may alias the input at the same index (in place);
// the kernels read each element before they write it.
//
// None of these kernels reduces across lanes. The order-sensitive sums and
// products of the two bag terms stay serial scalar code in internal/core.

package mat

import "math"

// ExpNeg writes out[j] = math.Exp(−d[j] − shift) for every j. With shift 0
// that is math.Exp(−d[j]) exactly: x − (+0) is x for every float64.
// milret:kernel
func ExpNeg(d []float64, shift float64, out []float64) {
	mustSameLen(len(d), len(out))
	lanes := expLanes()
	for i := 0; i < len(d); {
		switch lanes {
		case 8:
			i += expNegAVX512(&d[i], &out[i], len(d)-i, shift)
		case 4:
			i += expNegAVX2(&d[i], &out[i], len(d)-i, shift)
		}
		for end := scalarEnd(i, lanes, len(d)); i < end; i++ {
			out[i] = math.Exp(-d[i] - shift)
		}
	}
}

// ExpNegClamped writes the clamped instance probabilities of the noisy-or,
// p[j] = math.Exp(−d[j]) lowered to pMax when it is above it, and their
// complements q[j] = 1 − p[j].
// milret:kernel
func ExpNegClamped(d []float64, pMax float64, p, q []float64) {
	mustSameLen(len(d), len(p))
	mustSameLen(len(d), len(q))
	lanes := expLanes()
	for i := 0; i < len(d); {
		switch lanes {
		case 8:
			i += expNegClampedAVX512(&d[i], &p[i], &q[i], len(d)-i, pMax)
		case 4:
			i += expNegClampedAVX2(&d[i], &p[i], &q[i], len(d)-i, pMax)
		}
		for end := scalarEnd(i, lanes, len(d)); i < end; i++ {
			pi := math.Exp(-d[i])
			if pi > pMax {
				pi = pMax
			}
			p[i] = pi
			q[i] = 1 - pi
		}
	}
}

// Log writes out[j] = math.Log(x[j]) for every j.
// milret:kernel
func Log(x, out []float64) {
	mustSameLen(len(x), len(out))
	lanes := simdLanes()
	for i := 0; i < len(x); {
		switch lanes {
		case 8:
			i += logAVX512(&x[i], &out[i], len(x)-i)
		case 4:
			i += logAVX2(&x[i], &out[i], len(x)-i)
		}
		for end := scalarEnd(i, lanes, len(x)); i < end; i++ {
			out[i] = math.Log(x[i])
		}
	}
}

// LeaveOneOutRatios writes a positive bag's coefficients
// out[j] = p[j]·(prod/q[j])/P: with q[j] = 1 − p[j] and prod = Π q, the
// quotient prod/q[j] is the leave-one-out product Π_{l≠j} q[l].
// milret:kernel
func LeaveOneOutRatios(p, q []float64, prod, P float64, out []float64) {
	mustSameLen(len(p), len(q))
	mustSameLen(len(p), len(out))
	if len(p) == 0 {
		return
	}
	switch simdLanes() {
	case 8:
		looRatiosAVX512(&p[0], &q[0], &out[0], len(p), prod, P)
	case 4:
		looRatiosAVX2(&p[0], &q[0], &out[0], len(p), prod, P)
	default:
		for j, pj := range p {
			loo := prod / q[j]
			out[j] = pj * loo / P
		}
	}
}

// NegRatios writes a negative bag's coefficients out[j] = −p[j]/q[j].
// milret:kernel
func NegRatios(p, q, out []float64) {
	mustSameLen(len(p), len(q))
	mustSameLen(len(p), len(out))
	if len(p) == 0 {
		return
	}
	switch simdLanes() {
	case 8:
		negRatiosAVX512(&p[0], &q[0], &out[0], len(p))
	case 4:
		negRatiosAVX2(&p[0], &q[0], &out[0], len(p))
	default:
		for j, pj := range p {
			out[j] = -pj / q[j]
		}
	}
}

// simdLanes is the lane count of the active tier's likelihood bodies: 8 on
// avx512, 4 on avx2, 0 when the scalar loops run. expLanes is the same for
// the exp bodies, which additionally need math.Exp to be taking its FMA
// form.
func simdLanes() int {
	switch {
	case useAVX512.Load():
		return 8
	case useAVX2.Load():
		return 4
	}
	return 0
}

func expLanes() int {
	if !haveFMA {
		return 0
	}
	return simdLanes()
}

// scalarEnd is where the scalar loop hands back to a body that stopped at i
// of n: after i's group of lanes, or at n when there is no body.
func scalarEnd(i, lanes, n int) int {
	if lanes == 0 {
		return n
	}
	return min(i+lanes, n)
}
