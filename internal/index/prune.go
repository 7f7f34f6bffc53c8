// The candidate filter every top-k scan runs behind. Every bag carries a
// compact sketch (a float32 bounding box over its instances, in box tiles
// of mat.TileRows bags — Index.baseBoxes, built by FromFlat, or
// Index.tailBoxes, built by Append), and a top-k scan screens a whole tile
// against the current k-th-best cutoff before touching any instance row:
// mat.BoxTileExceeds lower-bounds each lane's bag's exact min-instance
// distance, so a bag whose bound already exceeds the cutoff provably cannot
// enter the top-k and is skipped without reading its rows. Surviving bags
// run through the exact blocked kernel. A bag therefore passes two screens,
// its box bound and the kernel's per-block early abandon, both against the
// cutoff.
//
// Correctness is unconditional, not probabilistic:
//
//   - The bound never exceeds the exact distance (outward-rounded box +
//     mirrored accumulation order — see mat/sketch.go), so for a true top-k
//     member bound ≤ exact ≤ cutoff and the strict > rejection never fires.
//   - The shared cutoff is always an upper bound on the global k-th best
//     (any worker's published root is the k-th best of a candidate subset),
//     so a rejected bag has exact distance strictly above the global k-th
//     best and cannot appear in the output even via ID tie-breaks. A tile
//     is screened against the cutoff read once at its start; a bag scored
//     inside the tile may tighten it since, which only means the tile's
//     later lanes were screened against a looser bound.
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
// a bound — a peer partition's, or the one a CutoffMemo remembered from the
// last answer to the same query — and the filter arms once some worker's
// heap holds k bags or a seed exists.
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
	// the scan starts. Either the caller asserts it is an upper bound on the
	// global k-th best distance of the *whole* logical query (e.g. a bound
	// published by a peer partition), and a looser-than-necessary seed only
	// weakens pruning; or the caller checks the answer against it
	// (MemoScan). Zero (or any non-positive/non-finite value) seeds nothing.
	CutoffSeed float64
}

// PruneStats counts top-k scans and the candidate filter's admission
// decisions. Scans is every top-k scan (one per query of a batch); Unarmed
// the subset that ran without the filter — a negative weight, or k covering
// every bag. Screened is the number of bags that reached an armed filter (a
// finite cutoff existed); every screened bag is either Admitted (scored
// exactly) or Rejected (skipped on its box bound alone). Bags scanned while
// the cutoff was still +Inf are not counted — the filter cannot act without
// a cutoff. Rows and Offers count the exact work of every top-k scan that
// reaches the chunk scan, armed or not: the instance rows handed to the
// exact kernel, and the scored bags offered to a worker's best-k heap (a
// bag strictly worse than a full heap's root is not offered). Seeded counts
// the whole logical queries that started from a bound a CutoffMemo
// remembered, and Rescans those of them whose bound proved too tight and that
// were scanned again unseeded (MemoScan); every scan of a rescanned query is
// also in Scans.
type PruneStats struct {
	Scans    atomic.Int64
	Unarmed  atomic.Int64
	Screened atomic.Int64
	Admitted atomic.Int64
	Rejected atomic.Int64
	Rows     atomic.Int64
	Offers   atomic.Int64
	Seeded   atomic.Int64
	Rescans  atomic.Int64
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

// seeded counts one query seeded from a remembered bound, and whether it was
// scanned again.
func (st *PruneStats) seeded(rescanned bool) {
	if st == nil {
		return
	}
	st.Seeded.Add(1)
	if rescanned {
		st.Rescans.Add(1)
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
	Rows     int64 `json:"rows"`
	Offers   int64 `json:"offers"`
	Seeded   int64 `json:"seeded"`
	Rescans  int64 `json:"rescans"`
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
		Rows:     st.Rows.Load(),
		Offers:   st.Offers.Load(),
		Seeded:   st.Seeded.Load(),
		Rescans:  st.Rescans.Load(),
	}
}

// scanCounts is one scan worker's tally, flushed to PruneStats once.
type scanCounts struct{ screened, rejected, rows, offers int64 }

// add flushes one worker's counts; the screened bags not rejected were
// admitted.
func (st *PruneStats) add(c scanCounts) {
	if st == nil {
		return
	}
	if c.screened > 0 {
		st.Screened.Add(c.screened)
		st.Admitted.Add(c.screened - c.rejected)
		st.Rejected.Add(c.rejected)
	}
	if c.rows > 0 {
		st.Rows.Add(c.rows)
		st.Offers.Add(c.offers)
	}
}

// screen returns done with the lane of every bag of the box tile starting
// at bag i (a tile edge) whose box lower bound — over the box's leading
// boxDims(dim) dimensions; the dropped dimensions' terms are non-negative,
// so the prefix bound only under-estimates — strictly exceeds cutoff set:
// a proof the bag cannot enter the top-k. done holds the lanes already out
// of the scan, padding included, which the screen leaves set.
func (s *Snapshot) screen(q Query, i int, cutoff float64, done uint8) uint8 {
	bd := boxDims(s.dim)
	return mat.BoxTileExceeds(q.Point[:bd], q.Weights[:bd], s.boxTile(i), cutoff, done)
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
	opts.Stats.scan(q.prunable())
	shared := NewCutoff()
	if opts.CutoffSeed > 0 {
		shared.Tighten(opts.CutoffSeed)
	}
	return bestK(scanTopKCandidates(sh, q, k, exclude, resolvePar(par), shared, opts.Stats), k)
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
