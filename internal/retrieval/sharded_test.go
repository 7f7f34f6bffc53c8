package retrieval

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"milret/internal/mat"
)

// compactShard rebuilds one shard's flat block the way a delete that crosses
// the auto-compaction threshold does, leaving the other shards untouched.
func compactShard(db *Database, i int) {
	sh := db.shards[i]
	sh.mu.Lock()
	sh.compactLocked(db.Dim())
	sh.mu.Unlock()
}

// totals sums the per-shard rows, the way the stats tree's totals are made.
func totals(db *Database) ShardStats {
	var sum ShardStats
	for _, row := range db.ShardStats() {
		sum.Images += row.Images
		sum.Instances += row.Instances
		sum.IndexBytes += row.IndexBytes
		sum.DeadImages += row.DeadImages
		sum.DeadInstances += row.DeadInstances
	}
	return sum
}

// Compacting one shard must not block reads or writes on the others: while
// shard compactions run in a loop, mutators and scanners on all shards make
// progress, the race detector stays silent, and the final state matches a
// rebuild.
func TestShardCompactionDoesNotBlockOthers(t *testing.T) {
	const dim = 6
	r := rand.New(rand.NewSource(11))
	_, flat := randScorerPair(r, dim)
	db := NewDatabaseSharded(4)
	for i := 0; i < 100; i++ {
		if err := db.Add(item(fmt.Sprintf("base-%03d", i), "l", randVec(r, dim))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Dedicated compactor hammering each shard in turn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				compactShard(db, i%db.ShardCount())
			}
		}
	}()
	// Scanners.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
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
			}
		}(g)
	}
	// Mutators across all shards.
	var mut sync.WaitGroup
	for w := 0; w < 4; w++ {
		mut.Add(1)
		go func(w int) {
			defer mut.Done()
			r := rand.New(rand.NewSource(int64(500 + w)))
			for i := 0; i < 60; i++ {
				id := fmt.Sprintf("w%d-%02d", w, i)
				if err := db.Add(item(id, "l", randVec(r, dim))); err != nil {
					t.Errorf("Add %s: %v", id, err)
					return
				}
				switch i % 4 {
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
				}
			}
		}(w)
	}
	mut.Wait()
	close(stop)
	wg.Wait()
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
		t.Fatal("sharded database diverged from rebuild after concurrent compaction")
	}
}

func TestUpdateLabelSemantics(t *testing.T) {
	db := buildDB(t, item("a", "x", mat.Vector{0, 0}), item("b", "y", mat.Vector{1, 0}))
	if err := db.UpdateLabel("ghost", "z"); err == nil {
		t.Fatal("label update of unknown ID accepted")
	}
	if err := db.UpdateLabel("b", "y2"); err != nil {
		t.Fatal(err)
	}
	it, _ := db.ByID("b")
	if it.Label != "y2" {
		t.Fatalf("label after update: %q", it.Label)
	}
	res := Rank(db, pointScorer{mat.Vector{1, 0}}, Options{})
	if res[0].ID != "b" || res[0].Label != "y2" {
		t.Fatalf("rank after label update: %+v", res)
	}
	st := totals(db)
	if st.DeadImages != 0 || st.DeadInstances != 0 || st.Images != 2 {
		t.Fatalf("label update cost tombstones: %+v", st)
	}
	if err := db.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateLabel("b", "y3"); err == nil {
		t.Fatal("label update of deleted ID accepted")
	}
}

// NewDatabaseFromFlats must enforce the hash-placement invariant so ByID and
// mutation routing can find every adopted item.
func TestNewDatabaseFromFlatsPlacement(t *testing.T) {
	dim := 2
	mk := func(ids ...string) FlatShard {
		var fs FlatShard
		for _, id := range ids {
			v := mat.Vector{1, 2}
			fs.Items = append(fs.Items, item(id, "l", v))
			fs.Data = append(fs.Data, v...)
		}
		// Re-point the bags at the shared block, as the store loader does.
		off := 0
		for _, it := range fs.Items {
			for j := range it.Bag.Instances {
				it.Bag.Instances[j] = mat.Vector(fs.Data[off : off+dim : off+dim])
				off += dim
			}
		}
		return fs
	}

	// Correct placement: split IDs by their hash over 2 shards.
	ids := []string{"a", "b", "c", "d", "e", "f", "g"}
	byShard := [2][]string{}
	for _, id := range ids {
		byShard[ShardIndexFor(id, 2)] = append(byShard[ShardIndexFor(id, 2)], id)
	}
	db, err := NewDatabaseFromFlats([]FlatShard{mk(byShard[0]...), mk(byShard[1]...)}, dim)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != len(ids) || db.ShardCount() != 2 {
		t.Fatalf("adopted %d items over %d shards", db.Len(), db.ShardCount())
	}
	for _, id := range ids {
		if _, ok := db.ByID(id); !ok {
			t.Fatalf("adopted item %q not resolvable", id)
		}
	}
	// Post-adoption mutations keep working.
	if err := db.Add(item("zz", "l", mat.Vector{3, 4})); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}

	// Misplaced item: everything in shard 0 cannot be right for 2 shards
	// unless all IDs happen to hash there — ids above span both shards.
	if _, err := NewDatabaseFromFlats([]FlatShard{mk(ids...), {}}, dim); err == nil {
		t.Fatal("misplaced items accepted")
	}
}
