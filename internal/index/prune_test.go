package index

import (
	"fmt"
	"math/rand"
	"testing"

	"milret/internal/mat"
)

// PruneStats must count every top-k scan once (one per query of a batch),
// mark the ones that could not arm the filter — a negative weight, k
// covering every bag — as Unarmed, and account every screened bag exactly
// once (Screened = Admitted + Rejected). Recall 0 screens like Recall 1.
// A par-1 scan's counts, the exact work counters Rows and Offers included,
// are pinned.
func TestPruneStatsAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	dim := 4
	x := New()
	for i := 0; i < 200; i++ {
		v := make(mat.Vector, dim)
		for k := range v {
			v[k] = r.NormFloat64()
		}
		if err := x.Append(fmt.Sprintf("bag%03d", i), "l", []mat.Vector{v}); err != nil {
			t.Fatal(err)
		}
	}
	view := Sharded{x.Snapshot()}
	q := randQueryFor(r, dim)
	neg := randQueryFor(r, dim)
	neg.Weights[1] = -0.5

	var zero, one PruneStats
	view.TopKPruned(q, 5, nil, 1, PruneOpts{Recall: 0, Stats: &zero})
	view.TopKPruned(q, 5, nil, 1, PruneOpts{Recall: 1, Stats: &one})
	if zero.Screened.Load() == 0 || zero.Screened.Load() != one.Screened.Load() || zero.Rejected.Load() != one.Rejected.Load() {
		t.Fatalf("Recall 0 screened %d/rejected %d, Recall 1 screened %d/rejected %d: want the same mechanism",
			zero.Screened.Load(), zero.Rejected.Load(), one.Screened.Load(), one.Rejected.Load())
	}

	// A par-1 scan is one worker walking the bags in order, so every count
	// is a fixed function of the seed. The first tile starts before any
	// cutoff exists and is scored unscreened; every later bag is screened,
	// and each of these one-instance bags scored hands the kernel one row:
	// Rows = (200 − Screened) + Admitted. Offers are the scored bags not
	// strictly worse than a full heap's root.
	want := PruneSnapshot{Scans: 1, Screened: 192, Admitted: 20, Rejected: 172, Rows: 28, Offers: 26}
	if got := one.Snapshot(); got != want {
		t.Fatalf("par-1 scan counted %+v, want %+v", got, want)
	}

	var stats PruneStats
	opts := PruneOpts{Stats: &stats}
	view.TopKPruned(q, 5, nil, 4, opts)                    // armed
	view.MultiTopKPruned([]Query{q, neg}, 5, nil, 4, opts) // one armed, one not
	view.TopKPruned(neg, 5, nil, 4, opts)                  // negative weight
	view.TopKPruned(q, 200, nil, 4, opts)                  // k ≥ n
	view.MultiTopKPruned([]Query{q, q}, 500, nil, 4, opts) // k ≥ n, per query
	view.TopKPruned(q, 0, nil, 4, opts)                    // k ≤ 0: no scan
	Sharded{}.TopKPruned(q, 5, nil, 4, opts)               // nothing to scan
	if got, want := stats.Scans.Load(), int64(7); got != want {
		t.Fatalf("Scans = %d, want %d", got, want)
	}
	if got, want := stats.Unarmed.Load(), int64(5); got != want {
		t.Fatalf("Unarmed = %d, want %d", got, want)
	}
	sc, ad, rj := stats.Screened.Load(), stats.Admitted.Load(), stats.Rejected.Load()
	if sc == 0 {
		t.Fatal("armed filter screened nothing")
	}
	if ad+rj != sc {
		t.Fatalf("screened %d != admitted %d + rejected %d", sc, ad, rj)
	}
}
