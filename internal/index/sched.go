// The work-stealing scan scheduler. Every scan — single snapshot or
// sharded, exhaustive or top-k, alone or as one query of a batch — runs on
// the same core: the bag ranges of all non-empty shards are cut into chunks,
// the chunks go into one global list, and min(par, len(chunks)) workers
// claim chunks off it on the shared worker loop (internal/workloop) until
// the list is empty. Intra-shard splitting and cross-shard stealing both
// fall out of workers claiming whatever chunk is next: no core is stranded
// by few or skewed shards, and the tail of a scan is bounded by one chunk,
// not one shard.
//
// Scheduling is invisible in the output. Rank writes each bag's exact
// distance into a per-shard slice (disjoint ranges, no coordination) and
// emits candidates in shard order afterwards. Top-k workers keep size-k
// heaps that span shards and share one atomic k-th-best Cutoff; any global
// top-k member is among the k best of whatever subset of bags its worker
// scanned, so it survives its worker's heap, while pruned bags report
// overshot distances strictly above the cutoff — which is itself an upper
// bound on the global k-th best — so overshoot
// entries sort strictly after every true top-k member and can never
// displace one, ties included. The final sort-and-truncate therefore
// returns bit-identical results for any chunking, any worker count, and
// any claim interleaving (property-tested against the naive scan in
// sharded_test.go).
package index

import (
	"math"
	"sync/atomic"

	"milret/internal/workloop"
)

// chunkSpan is one unit of claimable scan work: bags [lo, hi) of shard si.
type chunkSpan struct{ si, lo, hi int }

// chunkTarget picks the chunk size for a scan of total bags at parallelism
// par: about eight claims per worker — plenty of stealing granularity to
// level skew — clamped so tiny scans are not shredded into claim overhead
// and huge single-threaded scans still refresh their shared-cutoff view at
// a reasonable cadence.
func chunkTarget(total, par int) int {
	c := total / (par * 8)
	if c < 32 {
		c = 32
	}
	if c > 2048 {
		c = 2048
	}
	return c
}

// scanChunks cuts every non-empty shard's bag range into chunkTarget-sized
// spans, in shard order.
func scanChunks(shards []Snapshot, par int) []chunkSpan {
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total == 0 {
		return nil
	}
	target := chunkTarget(total, par)
	chunks := make([]chunkSpan, 0, total/target+len(shards))
	for si, s := range shards {
		n := s.Len()
		for lo := 0; lo < n; lo += target {
			hi := lo + target
			if hi > n {
				hi = n
			}
			chunks = append(chunks, chunkSpan{si: si, lo: lo, hi: hi})
		}
	}
	return chunks
}

// Scan-worker accounting. liveScanWorkers counts scan workers currently
// running (every scan worker body enters and exits the gauge); peakScanWorkers keeps the high-water mark (CAS max) so tests can
// assert the scheduler never exceeds the caller's parallelism budget, no
// matter the shard count or skew. The counters cost a few atomic ops per
// worker lifetime, not per bag.
var (
	liveScanWorkers atomic.Int64
	peakScanWorkers atomic.Int64
)

// resetScanWorkerPeak clears the high-water mark (testing hook).
func resetScanWorkerPeak() { peakScanWorkers.Store(liveScanWorkers.Load()) }

func enterScanWorker() {
	live := liveScanWorkers.Add(1)
	for {
		peak := peakScanWorkers.Load()
		if live <= peak || peakScanWorkers.CompareAndSwap(peak, live) {
			return
		}
	}
}

func exitScanWorker() { liveScanWorkers.Add(-1) }

// scanRankDists computes every live, non-excluded bag's exact distance into
// per-shard slices (excluded/tombstoned bags get +Inf). Chunks touch
// disjoint ranges, so workers write without coordination.
func scanRankDists(shards []Snapshot, q Query, exclude map[string]bool, par int) [][]float64 {
	prune := q.prunable()
	dists := make([][]float64, len(shards))
	for si, s := range shards {
		dists[si] = make([]float64, s.Len())
	}
	chunks := scanChunks(shards, par)
	workloop.Run(len(chunks), par, func(_ int, claim func() (int, bool)) {
		enterScanWorker()
		defer exitScanWorker()
		for ci, ok := claim(); ok; ci, ok = claim() {
			c := chunks[ci]
			s := shards[c.si]
			d := dists[c.si]
			for i := c.lo; i < c.hi; i++ {
				if s.skip(i, exclude) {
					d[i] = math.Inf(1)
					continue
				}
				d[i] = s.bagDist(q, i, math.Inf(1), prune)
			}
		}
	})
	return dists
}

// scanRankCandidates is the exhaustive scan: every live, non-excluded bag
// scored exactly, candidates emitted in shard-then-bag order (the callers
// sort, so only determinism matters, not the order itself).
func scanRankCandidates(shards []Snapshot, q Query, exclude map[string]bool, par int) []Result {
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total == 0 {
		return nil
	}
	dists := scanRankDists(shards, q, exclude, par)
	results := make([]Result, 0, total)
	for si, s := range shards {
		for i := 0; i < s.Len(); i++ {
			if s.skip(i, exclude) {
				continue
			}
			results = append(results, Result{ID: s.ids[i], Label: s.labels[i], Dist: dists[si][i]})
		}
	}
	return results
}

// scanTopKCandidates runs the chunk-claiming top-k scan over the shards and
// returns the merged (unsorted) contents of the per-worker heaps. Workers'
// heaps span shards; the shared cutoff spans everything. The caller sorts
// and truncates. filt is the query's armed candidate filter, or nil when it
// cannot arm (a negative weight): then no bag is box-screened and no row is
// abandoned, and the loop is the plain exhaustive reference.
func scanTopKCandidates(shards []Snapshot, q Query, k int, exclude map[string]bool, par int, shared *Cutoff, filt *pruneFilter) []Result {
	prune := filt != nil
	chunks := scanChunks(shards, par)
	if len(chunks) == 0 {
		return nil
	}
	heaps := make([]resultMaxHeap, min(par, len(chunks)))
	workloop.Run(len(chunks), par, func(w int, claim func() (int, bool)) {
		enterScanWorker()
		defer exitScanWorker()
		h := make(resultMaxHeap, 0, k)
		var screened, rejected int64
		for ci, ok := claim(); ok; ci, ok = claim() {
			c := chunks[ci]
			s := shards[c.si]
			for i := c.lo; i < c.hi; i++ {
				if s.skip(i, exclude) {
					continue
				}
				// Prune against the tightest published k-th best. Equality
				// is never pruned, preserving ID tie-breaks at the top-k
				// boundary. A bag pruned here may report an overshot (but
				// still exact-per-instance) distance > cutoff; such entries
				// cannot displace a true top-k member in the final merge.
				cutoff := shared.Load()
				if len(h) == k && h[0].Dist < cutoff {
					cutoff = h[0].Dist
				}
				if prune && !math.IsInf(cutoff, 1) {
					// Box screen: skip the bag without touching its rows when
					// its lower bound proves it cannot beat the cutoff.
					// Unarmed until a cutoff exists — the bound has nothing
					// to beat at +Inf.
					screened++
					if filt.reject(&s, i, cutoff) {
						rejected++
						continue
					}
				}
				d := s.bagDist(q, i, cutoff, prune)
				if len(h) == k && d > h[0].Dist {
					// Strictly worse than this worker's k-th best: offer
					// would reject it (ties still go through offer for the
					// ID tie-break), so skip the call and the Result build —
					// on a warm scan that is nearly every admitted bag.
					continue
				}
				h.offer(Result{ID: s.ids[i], Label: s.labels[i], Dist: d}, k, shared)
			}
		}
		if prune {
			filt.stats.add(screened, rejected)
		}
		heaps[w] = h
	})
	merged := make([]Result, 0, len(heaps)*k)
	for _, h := range heaps {
		merged = append(merged, h...)
	}
	return merged
}
