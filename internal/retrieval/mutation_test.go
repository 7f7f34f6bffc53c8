package retrieval

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"milret/internal/mat"
)

func TestDeleteSemantics(t *testing.T) {
	db := buildDB(t,
		item("a", "x", mat.Vector{0, 0}),
		item("b", "y", mat.Vector{1, 0}),
		item("c", "z", mat.Vector{2, 0}),
	)
	if err := db.Delete("ghost"); err == nil {
		t.Fatal("delete of unknown ID accepted")
	}
	if err := db.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("b"); err == nil {
		t.Fatal("double delete accepted")
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
	if _, ok := db.ByID("b"); ok {
		t.Fatal("deleted item still resolvable")
	}
	items := db.Items()
	if len(items) != 2 || items[0].ID != "a" || items[1].ID != "c" {
		t.Fatalf("Items = %+v", items)
	}
	res := Rank(db, pointScorer{mat.Vector{0, 0}}, Options{})
	if len(res) != 2 || res[0].ID != "a" || res[1].ID != "c" {
		t.Fatalf("rank after delete: %+v", res)
	}
	st := totals(db)
	if st.Images != 2 || st.DeadImages != 1 || st.DeadInstances != 1 || st.Instances != 2 {
		t.Fatalf("stats after delete: %+v", st)
	}

	// The tombstoned ID is immediately reusable.
	if err := db.Add(item("b", "y2", mat.Vector{5, 5})); err != nil {
		t.Fatalf("re-add of deleted ID: %v", err)
	}
	it, ok := db.ByID("b")
	if !ok || it.Label != "y2" {
		t.Fatalf("re-added item: %+v %v", it, ok)
	}
}

func TestUpdateSemantics(t *testing.T) {
	db := buildDB(t,
		item("a", "x", mat.Vector{0, 0}),
		item("b", "y", mat.Vector{100, 100}),
	)
	if err := db.Update(item("ghost", "l", mat.Vector{1, 1})); err == nil {
		t.Fatal("update of unknown ID accepted")
	}
	if err := db.Update(Item{ID: "a"}); err == nil {
		t.Fatal("nil bag accepted")
	}
	if err := db.Update(item("a", "x", mat.Vector{1})); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if err := db.Update(item("b", "y-new", mat.Vector{0.5, 0})); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
	it, _ := db.ByID("b")
	if it.Label != "y-new" {
		t.Fatalf("label after update: %q", it.Label)
	}
	res := Rank(db, pointScorer{mat.Vector{0, 0}}, Options{})
	if len(res) != 2 || res[1].ID != "b" || res[1].Dist != 0.25 {
		t.Fatalf("rank after update: %+v", res)
	}
}

// Property: after a random interleaving of deletes and updates, every scan
// — Rank and TopK — is bit-identical to a database rebuilt from scratch
// containing only the live items in their final state, and to the naive
// reference over those items.
// This is the acceptance property for the tombstone engine.
func TestQuickMutatedMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(24)
		n := 2 + r.Intn(40)
		db := randWeightedDB(t, r, n, dim, 4)

		// Random mutation storm over the existing IDs.
		for m := 0; m < r.Intn(2*n); m++ {
			id := fmt.Sprintf("img-%03d", r.Intn(n))
			switch r.Intn(3) {
			case 0:
				_ = db.Delete(id) // may already be gone
			case 1:
				if _, ok := db.ByID(id); ok {
					vecs := []mat.Vector{randVec(r, dim), randVec(r, dim)}
					if err := db.Update(item(id, "updated", vecs...)); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				fresh := fmt.Sprintf("new-%03d", m)
				if err := db.Add(item(fresh, "added", randVec(r, dim))); err != nil {
					t.Fatal(err)
				}
			}
		}
		if r.Intn(2) == 0 {
			db.Compact()
		}

		rebuilt := NewDatabase()
		for _, it := range db.Items() {
			if err := rebuilt.Add(it); err != nil {
				t.Fatal(err)
			}
		}

		naive, flat := randScorerPair(r, dim)
		opts := Options{Parallelism: 1 + r.Intn(4)}
		if !reflect.DeepEqual(Rank(db, flat, opts), Rank(rebuilt, flat, opts)) {
			t.Log("flat Rank diverged from rebuild")
			return false
		}
		k := 1 + r.Intn(n)
		if !reflect.DeepEqual(TopK(db, flat, k, opts), TopK(rebuilt, flat, k, opts)) {
			t.Log("flat TopK diverged from rebuild")
			return false
		}
		// And the engine still agrees with the reference post-mutation.
		return reflect.DeepEqual(Rank(db, flat, opts), naiveRank(db, naive, opts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randVec(r *rand.Rand, dim int) mat.Vector {
	v := mat.NewVector(dim)
	for k := range v {
		v[k] = r.NormFloat64()
	}
	return v
}

func TestCompactReclaimsDeadRows(t *testing.T) {
	db := NewDatabase()
	for i := 0; i < 100; i++ {
		if err := db.Add(item(fmt.Sprintf("img-%03d", i), "l", mat.Vector{float64(i), 0}, mat.Vector{0, float64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i += 2 {
		if err := db.Delete(fmt.Sprintf("img-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := Rank(db, pointScorer{mat.Vector{0, 0}}, Options{})
	st := totals(db)
	if st.DeadImages != 50 || st.DeadInstances != 100 {
		t.Fatalf("pre-compact stats: %+v", st)
	}
	db.Compact()
	st = totals(db)
	if st.DeadImages != 0 || st.DeadInstances != 0 || st.Images != 50 {
		t.Fatalf("post-compact stats: %+v", st)
	}
	if st.IndexBytes != int64(st.Instances*db.Dim()*8) {
		t.Fatalf("compacted block still carries dead rows: %+v", st)
	}
	after := Rank(db, pointScorer{mat.Vector{0, 0}}, Options{})
	if !reflect.DeepEqual(before, after) {
		t.Fatal("compaction changed the ranking")
	}
	// Compacting without tombstones is a no-op.
	db.Compact()
	if got := db.Len(); got != 50 {
		t.Fatalf("Len after idempotent compact = %d", got)
	}
}

// Automatic compaction: once dead rows pass the threshold the database
// rebuilds itself mid-mutation without disturbing rankings.
func TestAutoCompaction(t *testing.T) {
	db := NewDatabase()
	const n = 300
	perBag := compactMinDeadRows/(n/2) + 1
	for i := 0; i < n; i++ {
		vecs := make([]mat.Vector, perBag)
		for j := range vecs {
			vecs[j] = mat.Vector{float64(i), float64(j)}
		}
		if err := db.Add(item(fmt.Sprintf("img-%03d", i), "l", vecs...)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/2+2; i++ {
		if err := db.Delete(fmt.Sprintf("img-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := totals(db)
	// Compaction fires as soon as the threshold is crossed, so only the
	// deletes after the last compact linger as tombstones — far fewer than
	// were issued, and always below the trigger.
	if st.DeadInstances >= compactMinDeadRows {
		t.Fatalf("auto-compaction did not fire: %+v", st)
	}
	if st.Images != n-(n/2+2) {
		t.Fatalf("live count after auto-compaction: %+v", st)
	}
}

// Concurrent Add/Delete/Update/UpdateLabel/Compact against TopK/TopKMany/Rank
// readers: the race detector must stay silent, every query must see a
// consistent snapshot (ascending distances, no tombstoned ID in the output),
// and the final state must match a rebuild.
func TestConcurrentMutationsVersusQueries(t *testing.T) {
	const dim = 8
	r := rand.New(rand.NewSource(77))
	_, flat := randScorerPair(r, dim)
	db := NewDatabase()
	const stable = 40
	for i := 0; i < stable; i++ {
		if err := db.Add(item(fmt.Sprintf("stable-%02d", i), "l", randVec(r, dim))); err != nil {
			t.Fatal(err)
		}
	}

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res := Rank(db, flat, Options{Parallelism: 1 + g})
				for i := 1; i < len(res); i++ {
					if res[i].Dist < res[i-1].Dist {
						t.Errorf("torn rank: %v after %v", res[i], res[i-1])
						return
					}
				}
				top := TopK(db, flat, 5, Options{Parallelism: 1 + g})
				if len(top) > 5 {
					t.Errorf("TopK returned %d results", len(top))
					return
				}
				// A batch pins one snapshot set: its elements are the same
				// scan of the same view, whatever the writers do meanwhile.
				many := TopKMany(db, []Scorer{flat, flat, flat}, 5, Options{Parallelism: 1 + g})
				if !reflect.DeepEqual(many[0], many[1]) || !reflect.DeepEqual(many[0], many[2]) {
					t.Errorf("batch elements saw different snapshots: %v", many)
					return
				}
			}
		}(g)
	}
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("w%d-%02d", w, i)
				if err := db.Add(item(id, "l", randVec(r, dim))); err != nil {
					t.Errorf("Add %s: %v", id, err)
					return
				}
				switch i % 3 {
				case 0:
					if err := db.Delete(id); err != nil {
						t.Errorf("Delete %s: %v", id, err)
						return
					}
				case 1:
					if err := db.Update(item(id, "upd", randVec(r, dim))); err != nil {
						t.Errorf("Update %s: %v", id, err)
						return
					}
				case 2:
					if err := db.UpdateLabel(id, "relabeled"); err != nil {
						t.Errorf("UpdateLabel %s: %v", id, err)
						return
					}
					db.Compact()
				}
				// Read-your-write: a query after Delete returns must not see
				// the item; after Add/Update it must.
				found := false
				for _, rr := range Rank(db, flat, Options{}) {
					if rr.ID == id {
						found = true
						break
					}
				}
				if deleted := i%3 == 0; deleted == found {
					t.Errorf("Rank after mutation of %s: found=%v", id, found)
					return
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	rebuilt := NewDatabase()
	for _, it := range db.Items() {
		if err := rebuilt.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(Rank(db, flat, Options{}), Rank(rebuilt, flat, Options{})) {
		t.Fatal("mutated database diverged from rebuild")
	}
}
