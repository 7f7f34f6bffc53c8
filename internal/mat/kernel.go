// The blocked weighted-squared-distance kernel. This is the single
// implementation of Σ_k w_k (v_k − u_k)² used everywhere in the system — the
// naive scorer (WeightedSqDist), the Diverse Density training hot loops, and
// the flat columnar scan in internal/index — so that every path produces
// bit-identical distances by construction.
//
// Floating-point addition is not associative, so "the same value" requires
// one fixed accumulation order. The kernel pins it:
//
//   - dimensions are consumed in blocks of KernelBlock (4);
//   - within a full block, two independent accumulators take the strided
//     element pairs (0,2) and (1,3) — breaking the loop-carried add
//     dependency so the hardware can overlap the multiply-adds — and are
//     folded as (s0 + s1) before being added to the running sum;
//   - a trailing partial block (dim % 4 dimensions) is accumulated
//     sequentially into one scalar by tailSqDist and then added to the
//     running sum.
//
// A 4-dimension block beats the 8-wide variant on the scan workload: most
// instances abandon at the very first threshold check, so the cost of an
// abandoned row is one block, and halving the block halves it — while full
// evaluations (training, Rank) measure the same within noise.
//
// The block body appears three times below — in the single-vector loop
// (weightedSqDistPartial), in the flat row-scanning loop
// (MinWeightedSqDistRows), and in the vector-of-slices loop
// (MinWeightedSqDistVecs, behind core.Concept.BestInstance: Explain and the
// tests' naive reference) — and a fourth time in grad.go, where training's
// tile kernel (weightedSqDistTiles) runs it for eight rows at a tile's
// stride. The duplication is deliberate: the body is too large for the
// inliner, and a call per block of dimensions would cost more than the
// unroll buys. The copies MUST stay
// textually identical — same expressions, same fold order — and
// kernel_test.go enforces bit-identical results across every entry point, so
// any divergence fails the suite.
//
// The partial variants check the running sum against an abandon threshold
// after every block. Because they share the block order, a non-abandoned
// evaluation returns exactly the same bits as the full kernel, which is
// what keeps pruned scans bit-identical to unpruned ones.
//
// # SIMD dispatch
//
// On amd64 hosts with AVX2 (and without the purego build tag), the public
// entry points dispatch to assembly implementations of the very same loops
// (kernel_amd64.s; training's kernels, which also have AVX-512 bodies, are
// in grad.go, grad_amd64.s, likelihood.go and likelihood_amd64.s): each
// 4-dimension block is computed with vmulpd/vsubpd
// lanes and folded through the identical (s0+s1) strided reduction —
// separate multiplies and adds, never FMA-contracted — with the threshold
// check after every block, so the SIMD kernels return the same bits as the
// scalar ones on every entry point, abandoned or not (the one allowed
// divergence is the payload of a NaN result: NaN-producing inputs yield a
// NaN on both paths, but x86 NaN propagation picks payloads by operand
// order, which the Go compiler does not pin for scalar code). The scalar
// loops below are the oracle: kernel_simd_test.go and
// FuzzKernelSIMDvsScalar drive both implementations against each other.
// See kernel_dispatch.go for the runtime CPU detection and the
// MILRET_KERNEL / SetKernel escape hatches.
package mat

import (
	"fmt"
	"math"
)

// KernelBlock is the number of dimensions accumulated between partial-sum
// checks in the blocked kernel. Small enough that early abandonment fires
// quickly on high-dimensional features, large enough to amortize the branch
// over an unrolled inner step.
const KernelBlock = 4

// tailSqDist accumulates a trailing partial block (fewer than KernelBlock
// dimensions) sequentially. All kernel loops delegate their tail here.
// milret:kernel
func tailSqDist(v, u, w []float64) float64 {
	var s float64
	for i, x := range v {
		d := x - u[i]
		s += w[i] * d * d
	}
	return s
}

// WeightedSqDistBlocked returns Σ_k w_k (v_k − u_k)² using the blocked
// multi-accumulator kernel. All three slices must share a length; this is
// the canonical full evaluation every scoring path reduces to.
// milret:kernel
func WeightedSqDistBlocked(v, u, w []float64) float64 {
	mustSameLen(len(v), len(u))
	mustSameLen(len(v), len(w))
	s, _ := kernResume(v, u, w, 0, 0, math.Inf(1))
	return s
}

// kernResume is the dispatch point behind every single-vector entry: the
// AVX2 loop when the runtime selected it, the canonical scalar loop
// otherwise. Validation stays in the public wrappers; both implementations
// assume equal-length slices. An empty vector never reaches the assembly so
// the pointer derefs below stay in bounds.
// milret:kernel
func kernResume(v, u, w []float64, start int, sum, thr float64) (float64, bool) {
	if useAVX2.Load() && start < len(v) {
		return wsqResumeAVX2(&v[0], &u[0], &w[0], len(v), start, sum, thr)
	}
	return weightedSqDistResume(v, u, w, start, sum, thr)
}

// weightedSqDistPartial is the single-vector kernel loop. It assumes the
// slices have equal length. Its block body is the canonical one; the loop in
// MinWeightedSqDistRows carries an exact copy (see the package comment).
// milret:kernel
func weightedSqDistPartial(v, u, w []float64, thr float64) (float64, bool) {
	return weightedSqDistResume(v, u, w, 0, 0, thr)
}

// weightedSqDistResume is the single-vector loop body: the canonical kernel
// loop from dimension offset start (a multiple of KernelBlock) with the
// partial sum accumulated so far.
// milret:kernel
func weightedSqDistResume(v, u, w []float64, start int, sum float64, thr float64) (float64, bool) {
	n := len(v)
	// Reslicing to the common length lets the compiler drop redundant
	// bounds checks inside the loop.
	u = u[:n]
	w = w[:n]
	i := start
	for ; i+KernelBlock <= n; i += KernelBlock {
		vb := (*[KernelBlock]float64)(v[i:])
		ub := (*[KernelBlock]float64)(u[i:])
		wb := (*[KernelBlock]float64)(w[i:])
		d0 := vb[0] - ub[0]
		d1 := vb[1] - ub[1]
		d2 := vb[2] - ub[2]
		d3 := vb[3] - ub[3]
		s0 := wb[0]*d0*d0 + wb[2]*d2*d2
		s1 := wb[1]*d1*d1 + wb[3]*d3*d3
		sum += s0 + s1
		if sum > thr {
			return sum, true
		}
	}
	if i < n {
		sum += tailSqDist(v[i:], u[i:], w[i:])
		if sum > thr {
			return sum, true
		}
	}
	return sum, false
}

// MinWeightedSqDistVecs is MinWeightedSqDistRows for a bag whose instances
// live in separate slices (the general in-memory case, where bags are built
// one vector at a time rather than adopted from a flat block). It returns
// the minimum blocked weighted squared distance from p to any of the
// vectors together with the index achieving it (-1 for an empty slice), so
// one call scores a whole bag — the per-instance kernel-call overhead and
// the lost within-bag early abandonment were the naive fallback scan's
// regression.
//
// Pruning follows the Rows contract exactly: each vector is abandoned once
// its partial sum strictly exceeds min(best so far, cutoff), completed
// vectors carry bit-identical kernel values, and ties keep the earliest
// index (a later vector must be strictly smaller to displace the argmin), so
// naive rankings stay bit-identical to the flat scan's.
// milret:kernel
func MinWeightedSqDistVecs(p, w []float64, vecs []Vector, cutoff float64, prune bool) (float64, int) {
	dim := len(p)
	mustSameLen(dim, len(w))
	if len(vecs) == 0 {
		return math.Inf(1), -1
	}
	p = p[:dim:dim]
	w = w[:dim:dim]
	if useAVX2.Load() && dim > 0 {
		// Per-vector calls into the single-vector AVX2 loop: the threshold
		// logic is the scalar loop's, the evaluation the assembly's, so the
		// abandon decisions and surviving bits cannot diverge. With
		// thr = +Inf (the !prune case) no evaluation ever abandons, which is
		// exactly the unpruned scalar path.
		best := math.Inf(1)
		bi := -1
		for vi, vec := range vecs {
			mustSameLen(dim, len(vec))
			thr := math.Inf(1)
			if prune {
				thr = best
				if cutoff < thr {
					thr = cutoff
				}
			}
			sum, abandoned := wsqResumeAVX2(&p[0], &vec[0], &w[0], dim, 0, 0, thr)
			if abandoned {
				continue
			}
			if sum < best || bi < 0 {
				best, bi = sum, vi
			}
		}
		return best, bi
	}
	if !prune {
		cutoff = math.Inf(1)
		best := math.Inf(1)
		bi := -1
		for vi, vec := range vecs {
			mustSameLen(dim, len(vec))
			sum, _ := weightedSqDistPartial(p, vec, w, cutoff)
			if sum < best || bi < 0 {
				best, bi = sum, vi
			}
		}
		return best, bi
	}
	best := math.Inf(1)
	bi := -1
vecLoop:
	for vi, vec := range vecs {
		mustSameLen(dim, len(vec))
		row := vec[:dim:dim]
		thr := best
		if cutoff < thr {
			thr = cutoff
		}
		var sum float64
		i := 0
		for ; i+KernelBlock <= dim; i += KernelBlock {
			// Exact copy of the canonical block body in
			// weightedSqDistPartial — keep in lockstep.
			vb := (*[KernelBlock]float64)(p[i:])
			ub := (*[KernelBlock]float64)(row[i:])
			wb := (*[KernelBlock]float64)(w[i:])
			d0 := vb[0] - ub[0]
			d1 := vb[1] - ub[1]
			d2 := vb[2] - ub[2]
			d3 := vb[3] - ub[3]
			s0 := wb[0]*d0*d0 + wb[2]*d2*d2
			s1 := wb[1]*d1*d1 + wb[3]*d3*d3
			sum += s0 + s1
			if sum > thr {
				continue vecLoop
			}
		}
		if i < dim {
			sum += tailSqDist(p[i:], row[i:], w[i:])
			if sum > thr {
				continue vecLoop
			}
		}
		if sum < best || bi < 0 {
			best, bi = sum, vi
		}
	}
	return best, bi
}

// MinWeightedSqDistRows returns the minimum, over the row-major instance
// rows (len(rows) must be a multiple of len(p)), of the blocked weighted
// squared distance from p to each row — the bag-to-concept distance of §3.5
// evaluated in one call so the per-row kernel loops stay in registers
// instead of paying a function call per instance.
//
// Each row is abandoned once its partial sum strictly exceeds
// min(best so far, cutoff); prune=false disables abandonment entirely (for
// callers whose weights contain negative entries, where partial sums are
// not monotone). Abandoned rows cannot hold the minimum when the minimum is
// ≤ cutoff, and completed rows carry bit-identical kernel values, so the
// result equals the unpruned scan whenever it is ≤ cutoff and exceeds
// cutoff otherwise. Returns +Inf for an empty rows slice.
// milret:kernel
func MinWeightedSqDistRows(p, w, rows []float64, cutoff float64, prune bool) float64 {
	dim := len(p)
	mustSameLen(dim, len(w))
	if dim == 0 {
		if len(rows) != 0 {
			panic("mat: zero-dimensional point with non-empty rows")
		}
		return math.Inf(1)
	}
	if len(rows)%dim != 0 {
		panic(fmt.Sprintf("mat: rows length %d not a multiple of dim %d", len(rows), dim))
	}
	p = p[:dim:dim]
	w = w[:dim:dim]
	if useAVX2.Load() && len(rows) > 0 {
		// The whole row loop runs in assembly: per row the threshold is
		// min(best so far, cutoff) under pruning and +Inf otherwise — the
		// same NaN-exact comparisons as the scalar loop below — so the
		// abandon points, the surviving sums and the returned minimum carry
		// the scalar loop's bits.
		return minRowsAVX2(&p[0], &w[0], &rows[0], dim, len(rows)/dim, cutoff, prune)
	}
	if !prune {
		// With pruning off every row must be evaluated in full; an infinite
		// cutoff makes min(best, cutoff) infinite too, so no row abandons.
		cutoff = math.Inf(1)
		best := math.Inf(1)
		for r0 := 0; r0 < len(rows); r0 += dim {
			row := rows[r0 : r0+dim : r0+dim]
			sum, _ := weightedSqDistPartial(p, row, w, cutoff)
			if sum < best {
				best = sum
			}
		}
		return best
	}
	best := math.Inf(1)
rowLoop:
	for r0 := 0; r0 < len(rows); r0 += dim {
		row := rows[r0 : r0+dim : r0+dim]
		thr := best
		if cutoff < thr {
			thr = cutoff
		}
		var sum float64
		i := 0
		for ; i+KernelBlock <= dim; i += KernelBlock {
			// Exact copy of the canonical block body in
			// weightedSqDistPartial — keep in lockstep.
			vb := (*[KernelBlock]float64)(p[i:])
			ub := (*[KernelBlock]float64)(row[i:])
			wb := (*[KernelBlock]float64)(w[i:])
			d0 := vb[0] - ub[0]
			d1 := vb[1] - ub[1]
			d2 := vb[2] - ub[2]
			d3 := vb[3] - ub[3]
			s0 := wb[0]*d0*d0 + wb[2]*d2*d2
			s1 := wb[1]*d1*d1 + wb[3]*d3*d3
			sum += s0 + s1
			if sum > thr {
				continue rowLoop
			}
		}
		if i < dim {
			sum += tailSqDist(p[i:], row[i:], w[i:])
			if sum > thr {
				continue rowLoop
			}
		}
		if sum < best {
			best = sum
		}
	}
	return best
}
