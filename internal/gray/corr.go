package gray

import (
	"math"

	"milret/internal/mat"
)

// Corr returns the correlation coefficient of two equal-shape matrices
// (§3.1.1): the m×n matrices are treated as one mn-dimensional signal each,
//
//	r = (1/n) Σ (f1 − mean1)(f2 − mean2) / (σ1 σ2)
//
// with the population standard deviations. r ∈ [−1, 1]; r = 1 means
// perfectly correlated, r ≈ 0 uncorrelated, r = −1 perfectly inversely
// correlated (Figure 3-1). If either signal is constant (σ = 0) the
// coefficient is undefined and 0 is returned, matching the system's
// treatment of low-variance regions as uninteresting.
func Corr(a, b *mat.Matrix) float64 {
	return CorrVec(a.Data, b.Data)
}

// CorrVec is Corr on already-flattened signals.
func CorrVec(a, b mat.Vector) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	ma, mb := a.Mean(), b.Mean()
	var cov, va, vb float64
	for k := 0; k < n; k++ {
		da, db := a[k]-ma, b[k]-mb
		cov += float64(da * db)
		va += float64(da * da)
		vb += float64(db * db)
	}
	if va <= 0 || vb <= 0 {
		return 0
	}
	r := cov / math.Sqrt(va*vb)
	// Guard against floating-point drift pushing |r| epsilon above 1.
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r
}

// CorrSampled smooths and samples both images to h×h (§3.1.2) and returns
// their correlation coefficient — the end-to-end similarity measure of
// Table 3.1. The two images need not have the same size: both are reduced
// to the common h×h grid first, which is how the system compares regions of
// different pixel extents.
func CorrSampled(a, b *Image, h int) (float64, error) {
	sa, err := SmoothSample(a, h)
	if err != nil {
		return 0, err
	}
	sb, err := SmoothSample(b, h)
	if err != nil {
		return 0, err
	}
	return Corr(sa, sb), nil
}
