package index

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"milret/internal/mat"
)

// buildSkewedShards makes nShards indexes with sizes[i] bags each (sizes is
// cycled), so tests can pin shard-count/skew shapes exactly.
func buildSkewedShards(tb testing.TB, r *rand.Rand, dim int, sizes []int) Sharded {
	tb.Helper()
	view := make(Sharded, len(sizes))
	id := 0
	for si, n := range sizes {
		x := New()
		for i := 0; i < n; i++ {
			v := make(mat.Vector, dim)
			for k := range v {
				v[k] = r.NormFloat64()
			}
			if err := x.Append(fmt.Sprintf("img-%05d", id), "l", []mat.Vector{v}); err != nil {
				tb.Fatal(err)
			}
			id++
		}
		view[si] = x.Snapshot()
	}
	return view
}

// The scheduler's worker budget is a hard cap, not a hint: no matter how
// shards outnumber or dwarf each other, in-flight scan goroutines must never
// exceed the caller's par. The old static per-shard split honoured this by
// construction; the chunk-claiming scheduler must honour it by spawn count,
// which is what this regression test pins down (via the worker gauge —
// liveScanWorkers/peakScanWorkers in sched.go).
func TestScanWorkerBudget(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := []struct {
		name  string
		sizes []int
		par   int
	}{
		{"skewed", []int{900, 5, 5, 5, 5, 5}, 3}, // one giant shard
		{"more shards than par", []int{40, 40, 40, 40, 40, 40, 40, 40}, 2},
		{"par exceeds chunks", []int{3, 2}, 16}, // nw clamps to chunk count
		{"single shard", []int{400}, 4},         // intra-shard splitting only
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			view := buildSkewedShards(t, r, 8, tc.sizes)
			q := randQueryFor(r, 8)
			resetScanWorkerPeak()
			view.Rank(q, nil, tc.par)
			view.TopK(q, 5, nil, tc.par)
			// A batch splits the same budget across queries first: query
			// workers × scan workers each must stay within par for every
			// batch size below, at and above it.
			for _, nq := range []int{1, 2, 5, 9} {
				qs := make([]Query, nq)
				for i := range qs {
					qs[i] = randQueryFor(r, 8)
				}
				view.MultiTopK(qs, 5, nil, tc.par)
			}
			if peak := peakScanWorkers.Load(); peak > int64(tc.par) {
				t.Fatalf("peak scan workers = %d, budget par = %d", peak, tc.par)
			}
			if live := liveScanWorkers.Load(); live != 0 {
				t.Fatalf("scan workers still live after scans: %d", live)
			}
		})
	}
}

// Concurrent scans each bring their own budget; the gauge must see at most
// the sum, and drain to zero when all scans finish.
func TestScanWorkerBudgetConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	view := buildSkewedShards(t, r, 6, []int{500, 20, 20, 20})
	q := randQueryFor(r, 6)
	const par, scans = 2, 4
	resetScanWorkerPeak()
	var wg sync.WaitGroup
	for i := 0; i < scans; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view.TopK(q, 3, nil, par)
		}()
	}
	wg.Wait()
	if peak := peakScanWorkers.Load(); peak > par*scans {
		t.Fatalf("peak scan workers = %d, combined budget = %d", peak, par*scans)
	}
	if live := liveScanWorkers.Load(); live != 0 {
		t.Fatalf("scan workers still live after scans: %d", live)
	}
}

// BenchmarkTopKShardedSkewed scans a pathologically skewed shard layout —
// one shard holding ~93% of the corpus — the exact shape the old static
// per-shard worker split handled worst (idle crews on drained small shards
// while the giant shard ground on its fixed share). Under the chunk-claiming
// scheduler the layout costs the same as a balanced one.
func BenchmarkTopKShardedSkewed(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	view := buildSkewedShards(b, r, 64, []int{9300, 100, 100, 100, 100, 100, 100, 100})
	q := randQueryFor(r, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.TopK(q, 20, nil, 4)
	}
}
