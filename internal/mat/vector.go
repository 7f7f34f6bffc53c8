// Package mat provides the small dense linear-algebra kernel used throughout
// the retrieval system: float64 vectors and matrices, summary statistics
// (plain and weighted, population convention 1/n as in the paper §3.1.1), and
// the weighted Euclidean distances that Diverse Density and the ranking
// engine are built on.
//
// The package is deliberately free of external dependencies and of
// cleverness: every routine is a straight loop over contiguous slices so the
// compiler can bounds-check-eliminate and the behaviour is easy to audit.
package mat

import (
	"fmt"
	"math"
)

// Vector is a dense column vector of float64 values.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector {
	return make(Vector, n)
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Fill sets every element of v to x and returns v.
func (v Vector) Fill(x float64) Vector {
	for i := range v {
		v[i] = x
	}
	return v
}

// Sum returns the sum of the elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v. It returns 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Variance returns the population variance of v (the 1/n convention used in
// the paper). It returns 0 for an empty vector.
func (v Vector) Variance() float64 {
	if len(v) == 0 {
		return 0
	}
	m := v.Mean()
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation of v.
func (v Vector) Std() float64 {
	return math.Sqrt(v.Variance())
}

// Dot returns the inner product of v and u.
func (v Vector) Dot(u Vector) float64 {
	mustSameLen(len(v), len(u))
	var s float64
	for i, x := range v {
		s += x * u[i]
	}
	return s
}

// AddScaled sets v = v + a*u in place and returns v.
func (v Vector) AddScaled(a float64, u Vector) Vector {
	mustSameLen(len(v), len(u))
	for i := range v {
		v[i] += a * u[i]
	}
	return v
}

// Scale multiplies every element of v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// MaxAbs returns the largest absolute element of v, or 0 for an empty vector.
func (v Vector) MaxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Min returns the smallest element and its index, or (0, -1) if v is empty.
func (v Vector) Min() (float64, int) {
	if len(v) == 0 {
		return 0, -1
	}
	best, at := v[0], 0
	for i, x := range v {
		if x < best {
			best, at = x, i
		}
	}
	return best, at
}

// Max returns the largest element and its index, or (0, -1) if v is empty.
func (v Vector) Max() (float64, int) {
	if len(v) == 0 {
		return 0, -1
	}
	best, at := v[0], 0
	for i, x := range v {
		if x > best {
			best, at = x, i
		}
	}
	return best, at
}

// Standardize returns (v − mean(v)) / σ(v) as a new vector, the §3.4
// transformation with all weights equal to one. If σ(v) == 0 (a constant
// vector) the zero vector is returned; callers filter such degenerate regions
// out before this point (§3.2 variance threshold), so this is a safe
// fallback rather than a hot path.
func (v Vector) Standardize() Vector {
	out := make(Vector, len(v))
	m := v.Mean()
	sd := v.Std()
	if sd == 0 {
		return out
	}
	for i, x := range v {
		out[i] = (x - m) / sd
	}
	return out
}

// WeightedSqDist returns Σ_k w_k (v_k − u_k)², the weighted squared
// Euclidean distance of §2.2.1 with the weights supplied directly (callers
// that use the w² parametrization square before calling). It delegates to
// the blocked kernel (kernel.go), the single implementation shared with the
// flat columnar scan so all scoring paths agree bit-for-bit.
// milret:kernel
func WeightedSqDist(v, u, w Vector) float64 {
	return WeightedSqDistBlocked(v, u, w)
}

// AllNonNegative reports whether every element of v is ≥ 0 — the
// precondition for exact early abandonment in the blocked distance kernel
// (partial sums of non-negative terms are monotone).
func (v Vector) AllNonNegative() bool {
	for _, x := range v {
		if x < 0 {
			return false
		}
	}
	return true
}

// IsFinite reports whether every element of v is finite (no NaN or ±Inf).
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("mat: dimension mismatch: %d vs %d", a, b))
	}
}
