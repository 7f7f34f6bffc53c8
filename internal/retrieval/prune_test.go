package retrieval

import (
	"math/rand"
	"testing"

	"milret/internal/mat"
)

// Stats must expose the scan and filter counters with the accounting
// invariant (Screened = Admitted + Rejected), zero until a top-k scan runs,
// and cover every top-k scan, single or batched — with the ones that could
// not arm the filter counted as unarmed.
func TestPruneCountersInStats(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	db := randWeightedDB(t, r, 120, 8, 3)
	_, flat := randScorerPair(r, 8)
	Rank(db, flat, Options{})
	if st := db.PruneStats(); st.Scans != 0 || st.Screened != 0 {
		t.Fatalf("counters nonzero before any top-k scan: %+v", st)
	}
	TopK(db, flat, 5, Options{})
	TopKMany(db, []Scorer{flat, flat}, 5, Options{})
	st := db.PruneStats()
	if st.Scans != 3 || st.Unarmed != 0 {
		t.Fatalf("scans %d unarmed %d, want 3 and 0", st.Scans, st.Unarmed)
	}
	if st.Screened == 0 {
		t.Fatal("top-k scans screened nothing")
	}
	if st.Admitted+st.Rejected != st.Screened {
		t.Fatalf("screened %d != admitted %d + rejected %d",
			st.Screened, st.Admitted, st.Rejected)
	}
	neg := flat
	neg.w = append(mat.Vector(nil), flat.w...)
	neg.w[2] = -1
	TopK(db, neg, 5, Options{})    // negative weight: filter cannot arm
	TopK(db, flat, 500, Options{}) // k ≥ n: nothing to reject
	if st := db.PruneStats(); st.Scans != 5 || st.Unarmed != 2 {
		t.Fatalf("scans %d unarmed %d, want 5 and 2", st.Scans, st.Unarmed)
	}
}
