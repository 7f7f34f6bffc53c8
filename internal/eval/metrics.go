package eval

// This file adds the classic text-retrieval summary metrics contemporary
// with the paper (TREC conventions), complementing the raw curves: they
// make cross-system comparisons one-glance without plotting.

// InterpolatedPrecision returns the interpolated precision at a recall
// level: the maximum precision over all curve points with recall ≥ r.
// Interpolation removes the sawtooth of raw PR curves (each miss dents
// precision, each hit partially restores it).
func InterpolatedPrecision(pr []PRPoint, r float64) float64 {
	best := 0.0
	for _, p := range pr {
		if p.Recall >= r && p.Precision > best {
			best = p.Precision
		}
	}
	return best
}

// ElevenPointPrecision returns the TREC 11-point interpolated precision
// values at recall 0.0, 0.1, …, 1.0.
func ElevenPointPrecision(pr []PRPoint) [11]float64 {
	var out [11]float64
	for i := 0; i <= 10; i++ {
		out[i] = InterpolatedPrecision(pr, float64(i)/10)
	}
	return out
}
