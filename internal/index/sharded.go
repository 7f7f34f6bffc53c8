// Sharded scans: a sharded database's scoring state is N independent
// Indexes, each with its own flat block and tombstone mask, and a scan view
// over it is one Snapshot per shard. Scans run on the unified work-stealing
// scheduler (sched.go): every shard's bag range is cut into chunks in one
// global list, and min(par, chunks) workers claim chunks wherever they are —
// a worker that drains a small shard immediately steals work from a big
// one, so skewed or few shards never strand cores, and the total worker
// count never exceeds the caller's budget. The shards cooperate exactly the
// way workers inside one block already do:
//
//   - Top-k scans share one atomic cutoff (per query) across every worker.
//     A published k-th best is always the k-th smallest of a subset of the
//     global candidate set, hence an upper bound on the global k-th best,
//     so pruning against it is exact no matter which shard published it.
//     Sharding is therefore invisible in the output: distances and ID
//     tie-breaks are bit-identical to scanning one block holding all bags
//     (held to the naive scan by internal/retrieval's TestScanSpine).
//
//   - Workers merge into per-worker candidate heaps spanning shards; the
//     final sort-and-truncate over the concatenation is the same merge the
//     single-block scan does.
//
// This is also the distribution seam: internal/remote runs the same top-k
// scan on each partition's process, seeds each with the coordinator's
// Cutoff, and merges the partitions' lists the same way.
package index

import "runtime"

// Sharded is a consistent scan view over the shards of a sharded database:
// element i is shard i's Snapshot. Scans schedule chunks of every shard
// onto one worker pool and merge the per-worker candidates; results are
// bit-identical to the same scan over a single block holding all the bags.
// Empty shards contribute no chunks.
type Sharded []Snapshot

// Bags returns the total bag count across shards, tombstoned ones included.
func (sh Sharded) Bags() int {
	n := 0
	for _, s := range sh {
		n += s.Len()
	}
	return n
}

// check panics unless q has the dimensionality of every non-empty shard.
// Every scan entry point calls it before starting a worker, so a malformed
// query fails on the caller's goroutine, where the caller can recover it.
func (sh Sharded) check(q Query) {
	for _, s := range sh {
		if s.Len() > 0 {
			q.check(s.dim)
		}
	}
}

// resolvePar resolves a requested scan parallelism (0 = NumCPU) once, so
// every scan core works with one concrete worker budget.
func resolvePar(par int) int {
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par < 1 {
		par = 1
	}
	return par
}

// Rank scores every live, non-excluded bag in every shard exactly and
// returns the full ascending ranking with ties broken by ID — the same
// output a Sharded of one block holding all the bags produces.
func (sh Sharded) Rank(q Query, exclude map[string]bool, par int) []Result {
	if len(sh) == 0 {
		return normalizeEmpty(nil)
	}
	sh.check(q)
	merged := scanRankCandidates(sh, q, exclude, resolvePar(par))
	sortResults(merged)
	return normalizeEmpty(merged)
}

// TopK returns the k best live, non-excluded bags across all shards in
// ascending order: TopKPruned at the default tier, the conservative sketch
// filter every exact scan runs behind. For k ≥ the number of bags it
// equals Rank.
func (sh Sharded) TopK(q Query, k int, exclude map[string]bool, par int) []Result {
	return sh.TopKPruned(q, k, exclude, par, PruneOpts{})
}

// MultiTopK answers B queries as B single scans over this one view, so
// element i is exactly what TopK returns for qs[i]: MultiTopKPruned at the
// default tier.
func (sh Sharded) MultiTopK(qs []Query, k int, exclude map[string]bool, par int) [][]Result {
	return sh.MultiTopKPruned(qs, k, exclude, par, PruneOpts{})
}
