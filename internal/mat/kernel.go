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
// The block fold is written once, in sqBlock, and the tail once, in
// tailSqDist. Every scalar loop — the single-vector loop
// (weightedSqDistScalar), the flat row scan (MinWeightedSqDistRows),
// training's tile kernel (weightedSqDistTiles, grad.go) and the box screen
// (boxBoundScalar, sketch.go) — adds sqBlock's result to its running sum;
// sqBlock is small enough that the compiler inlines it at every call site,
// so the loops pay no call per block. Each product is rounded explicitly
// (a float64(…) conversion), which the Go spec forbids fusing into the add
// that follows: the bits are the same on a host whose compiler contracts
// x*y + z into an FMA (arm64, ppc64, s390x) as on amd64, which never does.
//
// Only the row scan and the box screen abandon: after every block they
// check the running sum against a threshold. Because they share the block
// order, a non-abandoned evaluation returns exactly the same bits as the
// full kernel, which is what keeps pruned scans bit-identical to unpruned
// ones.
//
// # SIMD dispatch
//
// On amd64 hosts with AVX2 (and without the purego build tag), the public
// entry points dispatch to assembly implementations of the very same loops
// (kernel_amd64.s; training's kernels, which also have AVX-512 bodies, are
// in grad.go, grad_amd64.s, likelihood.go and likelihood_amd64.s): each
// 4-dimension block is computed with vmulpd/vsubpd
// lanes and folded through the identical (s0+s1) strided reduction —
// separate multiplies and adds, never FMA-contracted — with the row scan's
// threshold check after every block, so the SIMD kernels return the same
// bits as the scalar ones on every entry point, abandoned or not (the one
// allowed divergence is the payload of a NaN result: NaN-producing inputs
// yield a NaN on both paths, but x86 NaN propagation picks payloads by
// operand order, which the Go compiler does not pin for scalar code). The
// scalar loops below are the oracle: TestKernelTiers and FuzzKernelTiers
// (tiers_test.go) drive every implementation against them.
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

// sqBlock is the canonical fold of one KernelBlock of weighted squared
// terms, w_k·d_k² for k = 0..3: the strided pairs (0,2) and (1,3) into two
// accumulators, then their sum. It is the only place the pairing is
// written; every kernel loop adds its result to the running sum.
// milret:kernel
func sqBlock(d0, d1, d2, d3, w0, w1, w2, w3 float64) float64 {
	s0 := float64(w0*d0*d0) + float64(w2*d2*d2)
	s1 := float64(w1*d1*d1) + float64(w3*d3*d3)
	return s0 + s1
}

// tailSqDist accumulates a trailing partial block (fewer than KernelBlock
// dimensions) sequentially into its own sum, which the caller adds to the
// running sum. The single-vector loop and the row scan delegate their tail
// here; the tile and box loops, whose operands are laid out differently,
// repeat its statement.
// milret:kernel
func tailSqDist(v, u, w []float64) float64 {
	var s float64
	for i, x := range v {
		d := x - u[i]
		s += float64(w[i] * d * d)
	}
	return s
}

// WeightedSqDistBlocked returns Σ_k w_k (v_k − u_k)² using the blocked
// multi-accumulator kernel. All three slices must share a length; this is
// the canonical full evaluation every scoring path reduces to: the AVX2
// loop when the runtime selected it, the scalar loop otherwise. An empty
// vector never reaches the assembly, so its pointer derefs stay in bounds.
// milret:kernel
func WeightedSqDistBlocked(v, u, w []float64) float64 {
	mustSameLen(len(v), len(u))
	mustSameLen(len(v), len(w))
	if useAVX2.Load() && len(v) > 0 {
		return wsqAVX2(&v[0], &u[0], &w[0], len(v))
	}
	return weightedSqDistScalar(v, u, w)
}

// weightedSqDistScalar is the single-vector kernel loop, the oracle behind
// WeightedSqDistBlocked. It assumes the slices have equal length.
// milret:kernel
func weightedSqDistScalar(v, u, w []float64) float64 {
	n := len(v)
	// Reslicing to the common length lets the compiler drop redundant
	// bounds checks inside the loop.
	u = u[:n]
	w = w[:n]
	var sum float64
	i := 0
	for ; i+KernelBlock <= n; i += KernelBlock {
		vb := (*[KernelBlock]float64)(v[i:])
		ub := (*[KernelBlock]float64)(u[i:])
		wb := (*[KernelBlock]float64)(w[i:])
		sum += sqBlock(vb[0]-ub[0], vb[1]-ub[1], vb[2]-ub[2], vb[3]-ub[3], wb[0], wb[1], wb[2], wb[3])
	}
	if i < n {
		sum += tailSqDist(v[i:], u[i:], w[i:])
	}
	return sum
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
	best := math.Inf(1)
	if !prune {
		// With pruning off every row is evaluated in full.
		for r0 := 0; r0 < len(rows); r0 += dim {
			if sum := weightedSqDistScalar(p, rows[r0:r0+dim:r0+dim], w); sum < best {
				best = sum
			}
		}
		return best
	}
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
			vb := (*[KernelBlock]float64)(p[i:])
			ub := (*[KernelBlock]float64)(row[i:])
			wb := (*[KernelBlock]float64)(w[i:])
			sum += sqBlock(vb[0]-ub[0], vb[1]-ub[1], vb[2]-ub[2], vb[3]-ub[3], wb[0], wb[1], wb[2], wb[3])
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
