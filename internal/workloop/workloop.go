// Package workloop is the one bounded worker loop: a fixed crew of workers
// claiming item indices off a shared atomic cursor. Training starts, scan
// chunks, the queries of a batch and the images of a corpus all run on it.
// The crew size is the whole concurrency bound — no worker is spawned per
// item — and which worker takes which item is left to the claims, so
// callers whose items are independent compute the same thing for any
// worker count.
package workloop

import (
	"sync"
	"sync/atomic"
)

// Run calls worker on min(workers, n) workers and returns when all have
// returned, reporting how many ran; workers < 1 counts as one. Worker w
// (0 ≤ w < the count) runs on its own goroutine, except worker 0, which
// runs on the caller's, so a one-worker run starts no goroutine. claim
// hands out each index 0..n−1 exactly once across all workers and reports
// false when none are left; a worker owns per-worker state (scratch, a
// heap, a gauge) around its claim loop and must claim until false.
func Run(n, workers int, worker func(w int, claim func() (int, bool))) int {
	nw := min(max(workers, 1), n)
	if nw <= 0 {
		return 0
	}
	var next atomic.Int64
	claim := func() (int, bool) {
		i := int(next.Add(1)) - 1
		return i, i < n
	}
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(w, claim)
		}()
	}
	worker(0, claim)
	wg.Wait()
	return nw
}
