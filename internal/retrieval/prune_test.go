package retrieval

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"milret/internal/mat"
)

// Property: every top-k scan runs behind the sketch filter, so the
// reference is the tests' naive per-bag ranking, which shares no code with
// it — naiveRank[:k]. Options.Recall 0, 1 and beyond are the same exact
// answer: TopK and TopKMany, single-block and sharded, through tombstones
// and compaction, with exclusions, across k.
func TestQuickRecallOneMatchesExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(30)
		n := 1 + r.Intn(50)
		db := NewDatabaseSharded(1 + r.Intn(4))
		for _, it := range randWeightedDB(t, r, n, dim, 4).Items() {
			if err := db.Add(it); err != nil {
				t.Fatal(err)
			}
		}
		for _, it := range db.Items() {
			if r.Intn(4) == 0 && db.Len() > 1 {
				if err := db.Delete(it.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		if r.Intn(2) == 0 {
			db.Compact()
		}
		naive, flat := randScorerPair(r, dim)
		exclude := map[string]bool{}
		for _, it := range db.Items() {
			if r.Intn(6) == 0 {
				exclude[it.ID] = true
			}
		}
		full := naiveRank(db, naive, Options{Exclude: exclude})
		for _, recall := range []float64{0, 1, 3} {
			opts := Options{Exclude: exclude, Parallelism: 1 + r.Intn(8), Recall: recall}
			for _, k := range []int{1, n / 2, n + 5} {
				if k < 1 {
					k = 1
				}
				want := full
				if k < len(want) {
					want = want[:k]
				}
				if got := TopK(db, flat, k, opts); !reflect.DeepEqual(got, want) {
					t.Logf("seed %d: TopK(k=%d, recall=%v) diverged from the naive ranking\n got %v\nwant %v", seed, k, recall, got, want)
					return false
				}
				for i, got := range TopKMany(db, []Scorer{flat, flat}, k, opts) {
					if !reflect.DeepEqual(got, want) {
						t.Logf("seed %d: TopKMany(k=%d, recall=%v)[%d] diverged from the naive ranking", seed, k, recall, i)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Stats must expose the scan and filter counters with the accounting
// invariant (Screened = Admitted + Rejected), zero until a top-k scan runs,
// and cover every top-k scan whatever its Recall — with the ones that could
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
	TopKMany(db, []Scorer{flat, flat}, 5, Options{Recall: 1})
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
