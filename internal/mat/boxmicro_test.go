package mat

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the box-bound screen kernel, separating its three
// cost regimes: call + compute with the box hot in cache, streaming a
// corpus-sized box array with early abandonment, and streaming with no
// abandonment at all (every block of every box read) — the screen's
// memory-traffic worst case. The end-to-end win of the pruning tier is
// measured by BenchmarkTopKPruned* at the repo root; these isolate the
// kernel so a regression is attributable.

func benchBoxData(nBags, dim int) (p, w []float64, boxes []float32, thr float64) {
	r := rand.New(rand.NewSource(7))
	p = make([]float64, dim)
	w = make([]float64, dim)
	for i := range p {
		p[i] = r.NormFloat64() * 3
		w[i] = 0.5 + r.Float64()
	}
	boxes = make([]float32, nBags*BoxStride*dim)
	rows := make([]float64, 4*dim)
	for b := 0; b < nBags; b++ {
		for i := range rows {
			rows[i] = r.NormFloat64()
		}
		PackBagSketch(dim, rows, boxes[b*BoxStride*dim:(b+1)*BoxStride*dim])
	}
	thr = 5.3
	return
}

func BenchmarkBoxScreenHot(b *testing.B) {
	needAVX2(b)
	p, w, boxes, thr := benchBoxData(1, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boxBoundExceedsAVX2(&p[0], &w[0], &boxes[0], 64, thr)
	}
}

func BenchmarkBoxScreenStream(b *testing.B) {
	needAVX2(b)
	const nBags = 100_000
	p, w, boxes, thr := benchBoxData(nBags, 64)
	stride := BoxStride * 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for bg := 0; bg < nBags; bg++ {
			boxBoundExceedsAVX2(&p[0], &w[0], &boxes[bg*stride], 64, thr)
		}
	}
}

func BenchmarkBoxScreenStreamNoAbandon(b *testing.B) {
	needAVX2(b)
	const nBags = 100_000
	p, w, boxes, _ := benchBoxData(nBags, 64)
	stride := BoxStride * 64
	thr := 1e30 // beyond any bound here: every block of every box is read
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for bg := 0; bg < nBags; bg++ {
			boxBoundExceedsAVX2(&p[0], &w[0], &boxes[bg*stride], 64, thr)
		}
	}
}
