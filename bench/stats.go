package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: fewer and the percentile is one outlier, not a tail.
const tailBeyond = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// quantile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// median returns the median of xs (not necessarily sorted); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 50)
}

// beyond counts the samples strictly above the p-th percentile's rank:
// the samples a reader can see past the reported tail.
func beyond(n int, p float64) int {
	return n - 1 - int(math.Ceil(p*float64(n-1)/100))
}

// highestSupportedTail returns the highest candidate percentile that
// keeps at least tailBeyond samples beyond it, or 0 when even the lowest
// candidate does not (the tail is then not reported at all).
func highestSupportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= tailBeyond {
			return p
		}
	}
	return 0
}

// tailSupported reports whether n samples keep tailBeyond of them beyond
// the p-th percentile.
func tailSupported(n int, p float64) bool { return n > 0 && beyond(n, p) >= tailBeyond }

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencySummary is one op class's latency distribution.
type latencySummary struct {
	N   int
	P50 float64 // ms
	P90 float64 // ms; 0 when fewer than tailBeyond samples lie beyond it
	// Tail is the highest percentile the sample count supports and its
	// value — printed for the reader, never gated.
	TailP  float64
	TailMS float64
}

// summarize reduces per-op latencies (ms) to the reported summary.
func summarize(samples []float64) latencySummary {
	s := latencySummary{N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.P50 = quantile(sorted, 50)
	if tailSupported(len(sorted), 90) {
		s.P90 = quantile(sorted, 90)
	}
	if p := highestSupportedTail(len(sorted)); p > 0 {
		s.TailP, s.TailMS = p, quantile(sorted, p)
	}
	return s
}

// measure times fn repeatedly and returns the median duration. It makes
// at least minReps calls and keeps going until budget is spent, never
// past maxReps. With four or more calls made, the first is treated as a
// warm-up and dropped; an operation too slow for that keeps all it has.
func measure(minReps, maxReps int, budget time.Duration, fn func()) time.Duration {
	var ds []float64
	start := time.Now()
	for len(ds) < maxReps && (len(ds) < minReps || time.Since(start) < budget) {
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0)))
	}
	if len(ds) >= 4 {
		ds = ds[1:]
	}
	return time.Duration(median(ds))
}
