package workloop

import (
	"sync"
	"testing"
)

// Every index must be claimed exactly once regardless of worker count, and
// the crew must be min(workers, n) — the invariant every caller's
// concurrency bound rests on.
func TestRunClaimsEachIndexOnce(t *testing.T) {
	const n = 17
	for _, workers := range []int{1, 2, 5, 100} {
		var mu sync.Mutex
		seen := map[int]int{}
		ran := map[int]bool{}
		nw := Run(n, workers, func(w int, claim func() (int, bool)) {
			mu.Lock()
			ran[w] = true
			mu.Unlock()
			for i, ok := claim(); ok; i, ok = claim() {
				mu.Lock()
				seen[i]++
				mu.Unlock()
			}
		})
		if want := min(workers, n); nw != want || len(ran) != want {
			t.Fatalf("workers=%d: Run reported %d, %d ran, want %d", workers, nw, len(ran), want)
		}
		for i := 0; i < n; i++ {
			if seen[i] != 1 {
				t.Fatalf("workers=%d: index %d claimed %d times", workers, i, seen[i])
			}
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: claimed %d distinct indices, want %d", workers, len(seen), n)
		}
	}
}

// No items start no worker; a non-positive crew still runs one.
func TestRunEdges(t *testing.T) {
	if nw := Run(0, 4, func(int, func() (int, bool)) { t.Fatal("worker ran with no items") }); nw != 0 {
		t.Fatalf("Run over no items reported %d workers", nw)
	}
	got := 0
	if nw := Run(3, 0, func(_ int, claim func() (int, bool)) {
		for _, ok := claim(); ok; _, ok = claim() {
			got++
		}
	}); nw != 1 || got != 3 {
		t.Fatalf("workers=0: %d workers claimed %d items, want 1 and 3", nw, got)
	}
}
