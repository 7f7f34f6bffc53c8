// Package kernfix is the kernelpure fixture: the canonical NaN-false
// early-abandon loop next to every forbidden idiom.
package kernfix

import "math"

// sqDist is the canonical kernel shape — NaN-false `>` abandon check,
// plain mul+add: clean.
//
// milret:kernel
func sqDist(a, b []float64, thr float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
		if sum > thr {
			return sum
		}
	}
	return sum
}

// badFMA fuses the rounding the assembly does in two steps.
//
// milret:kernel
func badFMA(a, b, c float64) float64 {
	return math.FMA(a, b, c) // want `math\.FMA in a milret:kernel`
}

// badMin delegates NaN and signed-zero handling to math.Min.
//
// milret:kernel
func badMin(a, b float64) float64 {
	return math.Min(a, b) // want `math\.Min in a milret:kernel`
}

// badCompares uses the NaN-polarity-flipping idioms.
//
// milret:kernel
func badCompares(a, b float64) int {
	n := 0
	if a >= b { // want `float .>=. in a milret:kernel`
		n++
	}
	if a == b { // want `float .==. in a milret:kernel`
		n++
	}
	if !(a > b) { // want `negated float comparison`
		n++
	}
	return n
}

// badMapReduce folds in map iteration order.
//
// milret:kernel
func badMapReduce(m map[int]float64) float64 {
	var sum float64
	for _, v := range m { // want `range over a map`
		sum += v
	}
	return sum
}

// nanSurvives keeps a deliberate NaN-true survivor check with a
// justified suppression: clean.
//
// milret:kernel
func nanSurvives(sum, thr float64) bool {
	//lint:ignore kernelpure NaN sums must survive screening, by design
	return !(sum > thr)
}

// notAKernel is unannotated, so the discipline does not apply.
func notAKernel(a, b float64) float64 {
	return math.Max(math.FMA(a, b, 1), 0)
}

var (
	_ = sqDist
	_ = badFMA
	_ = badMin
	_ = badCompares
	_ = badMapReduce
	_ = nanSurvives
	_ = notAKernel
)
