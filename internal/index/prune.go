// The candidate filter every top-k scan runs behind. Every bag carries a
// compact sketch (a float32 bounding box over its instances — Index.boxes,
// built on Append and FromFlat), and a top-k scan screens each bag's box
// against the current k-th-best cutoff before touching any instance row:
// mat.BoxBoundExceeds lower-bounds the bag's exact min-instance distance, so
// a bag whose bound already exceeds the cutoff provably cannot enter the
// top-k and is skipped without reading its rows. Surviving bags run through
// the exact blocked kernel. A bag therefore passes two screens, its box
// bound and the kernel's per-block early abandon, both against the cutoff.
//
// Correctness is unconditional, not probabilistic:
//
//   - The bound never exceeds the exact distance (outward-rounded box +
//     mirrored accumulation order — see mat/sketch.go), so for a true top-k
//     member bound ≤ exact ≤ cutoff and the strict > rejection never fires.
//   - The shared cutoff is always an upper bound on the global k-th best
//     (any worker's published root is the k-th best of a candidate subset),
//     so a rejected bag has exact distance strictly above the global k-th
//     best and cannot appear in the output even via ID tie-breaks.
//   - Skipping such a bag is semantically identical to tombstoning it:
//     cutoffs only ever tighten from bags that produce results, so
//     survivors' distances and order carry the unfiltered scan's bits.
//
// The filter cannot arm for a query with a negative weight (the bound's
// monotonicity argument needs non-negative terms) or when k covers every
// bag (nothing to reject); those scans run the plain loop or Rank and are
// counted as PruneStats.Unarmed.
//
// The cutoff starts at +Inf, or at PruneOpts.CutoffSeed when a caller knows
// a bound, and the filter arms once some worker's heap holds k bags.
package index

import (
	"sync/atomic"

	"milret/internal/mat"
	"milret/internal/workloop"
)

// PruneOpts tunes the candidate filter for one query. The zero value is the
// exact scan with no stats and no seed.
type PruneOpts struct {
	// Recall is ignored: every scan is exact. It stays only because the
	// benchmark harness, which is frozen, still sets it (ROADMAP item 5).
	Recall float64
	// Stats, when non-nil, accumulates the scan and admission counters
	// (flushed once per scan worker, not per bag).
	Stats *PruneStats
	// CutoffSeed, when positive and finite, pre-tightens the cutoff before
	// the scan starts. The caller asserts it is an upper bound on the
	// global k-th best distance of the *whole* logical query (e.g. a bound
	// published by a peer partition); a looser-than-necessary seed only
	// weakens pruning. Zero (or any non-positive/non-finite value) seeds
	// nothing.
	CutoffSeed float64
}

// PruneStats counts top-k scans and the candidate filter's admission
// decisions. Scans is every top-k scan (one per query of a batch); Unarmed
// the subset that ran without the filter — a negative weight, or k covering
// every bag. Screened is the number of bags that reached an armed filter (a
// finite cutoff existed); every screened bag is either Admitted (scored
// exactly) or Rejected (skipped on its box bound alone). Bags scanned while
// the cutoff was still +Inf are not counted — the filter cannot act without
// a cutoff.
type PruneStats struct {
	Scans    atomic.Int64
	Unarmed  atomic.Int64
	Screened atomic.Int64
	Admitted atomic.Int64
	Rejected atomic.Int64
}

// scan counts one top-k scan.
func (st *PruneStats) scan(armed bool) {
	if st == nil {
		return
	}
	st.Scans.Add(1)
	if !armed {
		st.Unarmed.Add(1)
	}
}

// PruneSnapshot is a point-in-time reading of a PruneStats — the "prune"
// block of the stats tree as /v1/stats and the stats RPC carry it.
type PruneSnapshot struct {
	Scans    int64 `json:"scans"`
	Unarmed  int64 `json:"unarmed"`
	Screened int64 `json:"screened"`
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
}

// Snapshot reads the counters. Each is read atomically, the set is not: a
// scan flushing concurrently may be half counted.
func (st *PruneStats) Snapshot() PruneSnapshot {
	return PruneSnapshot{
		Scans:    st.Scans.Load(),
		Unarmed:  st.Unarmed.Load(),
		Screened: st.Screened.Load(),
		Admitted: st.Admitted.Load(),
		Rejected: st.Rejected.Load(),
	}
}

// add flushes one worker's screen counts; the rest were admitted.
func (st *PruneStats) add(screened, rejected int64) {
	if st == nil || screened == 0 {
		return
	}
	st.Screened.Add(screened)
	st.Admitted.Add(screened - rejected)
	st.Rejected.Add(rejected)
}

// pruneFilter is one query's armed filter: its geometry and the stats sink.
type pruneFilter struct {
	q     Query
	stats *PruneStats
}

// reject reports whether bag i of s is screened out: its box lower bound —
// over the box's leading boxDims(dim) dimensions; the dropped dimensions'
// terms are non-negative, so the prefix bound only under-estimates —
// strictly exceeds cutoff, a proof the bag cannot enter the top-k.
func (f *pruneFilter) reject(s *Snapshot, i int, cutoff float64) bool {
	bd := boxDims(s.dim)
	stride := mat.BoxStride * bd
	return mat.BoxBoundExceeds(f.q.Point[:bd], f.q.Weights[:bd], s.boxes[i*stride:(i+1)*stride], cutoff)
}

// newPruneFilter arms the filter for q, or returns nil when it cannot
// apply: with a negative weight the bound's (and early abandonment's)
// monotonicity argument fails, and the scan must score every row in full.
func newPruneFilter(q Query, stats *PruneStats) *pruneFilter {
	if !q.prunable() {
		return nil
	}
	return &pruneFilter{q: q, stats: stats}
}

// TopKPruned is the single-query top-k scan: every live, non-excluded bag of
// every shard behind one filter and one shared cutoff, the per-worker
// candidate heaps merged by sort-and-truncate. The output is bit-identical
// to Rank(q, exclude, par)[:k] for any shard split, worker count and claim
// interleaving (see the file comment and sched.go).
func (sh Sharded) TopKPruned(q Query, k int, exclude map[string]bool, par int, opts PruneOpts) []Result {
	if k <= 0 {
		return nil
	}
	n := sh.Bags()
	if n == 0 {
		return normalizeEmpty(nil)
	}
	if k >= n {
		// Every candidate survives: there is no cutoff to prune against.
		opts.Stats.scan(false)
		return sh.Rank(q, exclude, par)
	}
	sh.check(q)
	filt := newPruneFilter(q, opts.Stats)
	opts.Stats.scan(filt != nil)
	shared := NewCutoff()
	if opts.CutoffSeed > 0 {
		shared.Tighten(opts.CutoffSeed)
	}
	return bestK(scanTopKCandidates(sh, q, k, exclude, resolvePar(par), shared, filt), k)
}

// MultiTopKPruned answers B queries over one pinned view: element i is
// exactly TopKPruned(qs[i], ...) because it is that call. Parallelism is
// spent across queries before it is spent inside them — min(par, B) query
// workers claim queries off a shared cursor and each runs the single-query
// scan on par/workers scan workers — since a whole query per core wastes
// nothing, while splitting one short scan over every core does. Live scan
// workers never exceed par. Every query's dimension is checked here, on the
// caller's goroutine, so a malformed query panics where the caller can
// recover it. opts.CutoffSeed is single-query protocol and ignored.
func (sh Sharded) MultiTopKPruned(qs []Query, k int, exclude map[string]bool, par int, opts PruneOpts) [][]Result {
	if len(qs) == 0 {
		return nil
	}
	outs := make([][]Result, len(qs))
	if k <= 0 {
		return outs
	}
	for _, q := range qs {
		sh.check(q)
	}
	opts.CutoffSeed = 0
	par = resolvePar(par)
	workers := min(par, len(qs))
	workloop.Run(len(qs), workers, func(_ int, claim func() (int, bool)) {
		for qi, ok := claim(); ok; qi, ok = claim() {
			outs[qi] = sh.TopKPruned(qs[qi], k, exclude, par/workers, opts)
		}
	})
	return outs
}

// bestK sorts the merged worker candidates and keeps the k best.
func bestK(merged []Result, k int) []Result {
	sortResults(merged)
	if len(merged) > k {
		merged = merged[:k]
	}
	return normalizeEmpty(merged)
}
