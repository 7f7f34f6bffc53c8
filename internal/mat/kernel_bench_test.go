package mat

import (
	"math"
	"math/rand"
	"testing"
)

// Kernel micro-benches, one per implementation, shaped like the retrieval
// scan: MinRowsPruned is the hot path of a warm top-k scan (tight cutoff,
// most rows abandoned at the first block), MinRowsFull the training /
// unpruned shape, Blocked the bare single-vector kernel. BenchmarkKernelAVX2
// vs BenchmarkKernelScalar on the same host is the recorded SIMD speedup;
// both run regardless of MILRET_KERNEL so the comparison is always present
// in one capture.

var benchKernelSink float64

func benchKernel(b *testing.B, avx2 bool) {
	if avx2 && !kernelAVX2Available() {
		b.Skip("no AVX2 on this host")
	}
	const dim, nRows = 100, 1000
	rng := rand.New(rand.NewSource(42))
	p := make([]float64, dim)
	w := make([]float64, dim)
	rows := make([]float64, dim*nRows)
	for i := range p {
		p[i] = rng.Float64()
		w[i] = rng.Float64()
	}
	for i := range rows {
		rows[i] = rng.Float64()
	}
	// Tight cutoff: the true minimum, so pruning behaves like a warm top-k
	// heap boundary and nearly every row abandons early.
	cutoff := MinWeightedSqDistRows(p, w, rows, math.Inf(1), false)

	b.Run("MinRowsPruned", func(b *testing.B) {
		withKernel(avx2, func() {
			b.SetBytes(int64(dim * nRows * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchKernelSink = MinWeightedSqDistRows(p, w, rows, cutoff, true)
			}
		})
	})
	b.Run("MinRowsFull", func(b *testing.B) {
		withKernel(avx2, func() {
			b.SetBytes(int64(dim * nRows * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchKernelSink = MinWeightedSqDistRows(p, w, rows, math.Inf(1), false)
			}
		})
	})
	b.Run("Blocked", func(b *testing.B) {
		u := rows[:dim]
		withKernel(avx2, func() {
			b.SetBytes(int64(dim * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchKernelSink = WeightedSqDistBlocked(p, u, w)
			}
		})
	})
}

func BenchmarkKernelAVX2(b *testing.B)   { benchKernel(b, true) }
func BenchmarkKernelScalar(b *testing.B) { benchKernel(b, false) }

// BenchmarkTrainKernels times the two training kernels on one example set of
// the served shape (200 rows × 100 dims: five bags of 40), once per tier the
// host has: DistTiles is one distance pass over the whole set, DistTilesBags
// the forward pass's real call shape over the same rows — one call per bag
// of 40 rows, five tiles, so the AVX-512 body's odd last tile runs in every
// call — GradDirect the gradient pass of the server-default weight mode
// (weights enter directly, b nil), GradSquared that of the w² modes. The
// point and the weights are the halves of one θ and the two accumulators
// the halves of one gradient, as training lays them out — with 100 dims the
// second halves sit 32 bytes off a cache line, which a 64-byte access pays
// for.
func BenchmarkTrainKernels(b *testing.B) {
	const dim, nRows, bagRows = 100, 200, 40
	rng := rand.New(rand.NewSource(42))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	theta, W, rows, coefs := vec(2*dim), vec(dim), vec(dim*nRows), vec(nRows)
	t, w := theta[:dim], theta[dim:]
	tiles, padded := tileRows(rows, dim, 0)
	out, grad := make([]float64, padded), make([]float64, 2*dim)
	tiers, _ := simdTiers()
	for _, tier := range append([]string{"scalar"}, tiers...) {
		run := func(name string, f func()) {
			b.Run(tier+"/"+name, func(b *testing.B) {
				withTier(tier, func() {
					for i := 0; i < b.N; i++ {
						f()
					}
				})
			})
		}
		run("DistTiles", func() { WeightedSqDistTiles(t, W, tiles, out) })
		run("DistTilesBags", func() {
			for lo := 0; lo < nRows; lo += bagRows {
				WeightedSqDistTiles(t, W, tiles[lo*dim:(lo+bagRows)*dim], out[lo:lo+bagRows])
			}
		})
		run("GradDirect", func() { GradAccumRows(grad[:dim], grad[dim:], t, w, nil, rows, coefs, 2, 1) })
		run("GradSquared", func() { GradAccumRows(grad[:dim], grad[dim:], t, W, w, rows, coefs, 2, 2) })
	}
}
