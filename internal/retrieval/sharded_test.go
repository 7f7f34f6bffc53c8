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

// mirrorPair applies the same construction to a 1-shard and an N-shard
// database so scans over the two can be compared bit-for-bit.
type mirrorPair struct {
	single  *Database
	sharded *Database
}

func (p mirrorPair) add(t testing.TB, it Item) {
	t.Helper()
	if err := p.single.Add(it); err != nil {
		t.Fatal(err)
	}
	if err := p.sharded.Add(it); err != nil {
		t.Fatal(err)
	}
}

func randMirror(t testing.TB, r *rand.Rand, n, dim, maxInst, nShards int) mirrorPair {
	p := mirrorPair{single: NewDatabase(), sharded: NewDatabaseSharded(nShards)}
	for i := 0; i < n; i++ {
		nInst := 1 + r.Intn(maxInst)
		vecs := make([]mat.Vector, nInst)
		for j := range vecs {
			vecs[j] = randVec(r, dim)
		}
		p.add(t, item(fmt.Sprintf("img-%03d", i), fmt.Sprintf("cat%d", i%3), vecs...))
	}
	return p
}

// The tentpole acceptance property: an N-shard database ranks bit-identically
// to a 1-shard database over the same bags, and both to the naive reference
// — Rank, TopK and TopKMany — through random interleavings of adds, deletes,
// updates and label swaps, and after compacting random individual shards.
// The TopKMany leg walks batch size × parallelism over the whole grid below:
// batches smaller than, equal to and larger than the worker budget, and one
// past the 64 scorers a batch was once chunked at.
func TestQuickShardedMatchesSingleShard(t *testing.T) {
	batchSizes := []int{1, 2, 5, 9, 70}
	pars := []int{1, 2, 3, 8}
	iter := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(24)
		n := 2 + r.Intn(40)
		nShards := 2 + r.Intn(4)
		p := randMirror(t, r, n, dim, 4, nShards)

		// Mutation storm applied to both databases.
		for m := 0; m < r.Intn(2*n); m++ {
			id := fmt.Sprintf("img-%03d", r.Intn(n))
			switch r.Intn(4) {
			case 0:
				e1, e2 := p.single.Delete(id), p.sharded.Delete(id)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("delete divergence for %s: %v vs %v", id, e1, e2)
				}
			case 1:
				if _, ok := p.single.ByID(id); ok {
					vecs := []mat.Vector{randVec(r, dim), randVec(r, dim)}
					p2 := item(id, "updated", vecs...)
					if err := p.single.Update(p2); err != nil {
						t.Fatal(err)
					}
					if err := p.sharded.Update(p2); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				if _, ok := p.single.ByID(id); ok {
					lb := fmt.Sprintf("relabel-%d", m)
					if err := p.single.UpdateLabel(id, lb); err != nil {
						t.Fatal(err)
					}
					if err := p.sharded.UpdateLabel(id, lb); err != nil {
						t.Fatal(err)
					}
				}
			case 3:
				p.add(t, item(fmt.Sprintf("new-%03d", m), "added", randVec(r, dim)))
			}
		}
		// Compact a random subset of the sharded database's shards only — the
		// single-shard mirror keeps its tombstones, so the comparison also
		// proves per-shard compaction is invisible to rankings.
		for si := 0; si < p.sharded.ShardCount(); si++ {
			if r.Intn(2) == 0 {
				compactShard(p.sharded, si)
			}
		}

		naive, flat := randScorerPair(r, dim)
		exclude := map[string]bool{}
		for _, it := range p.single.Items() {
			if r.Intn(6) == 0 {
				exclude[it.ID] = true
			}
		}
		opts := Options{Exclude: exclude, Parallelism: pars[iter/len(batchSizes)%len(pars)]}
		nq := batchSizes[iter%len(batchSizes)]
		iter++
		// The naive ranking — a reference no cutoff, heap, seed or box has
		// touched — is the same over either database: Items() agree below.
		full := naiveRank(p.single, naive, opts)
		for name, db := range map[string]*Database{"single": p.single, "sharded": p.sharded} {
			if !reflect.DeepEqual(Rank(db, flat, opts), full) {
				t.Logf("%s Rank diverged from the naive ranking", name)
				return false
			}
			for _, k := range []int{1, n / 2, n + 5} {
				if k < 1 {
					k = 1
				}
				if !reflect.DeepEqual(TopK(db, flat, k, opts), naiveTopK(p.single, naive, k, opts)) {
					t.Logf("%s TopK(%d) diverged from the naive ranking", name, k)
					return false
				}
			}
		}
		// A batch: element i is scorer i's own naive top-k, one
		// negative-weight scorer (its filter cannot arm) among armed mates.
		scorers := make([]Scorer, nq)
		want := make([][]Result, nq)
		k := 1 + r.Intn(n+4) // through k ≥ n
		unarmed := r.Intn(nq)
		for i := range scorers {
			ni, fi := randScorerPair(r, dim)
			if i == unarmed {
				ni.w[r.Intn(dim)] *= -1
			}
			scorers[i], want[i] = fi, naiveTopK(p.single, ni, k, opts)
		}
		for name, db := range map[string]*Database{"single": p.single, "sharded": p.sharded} {
			if !reflect.DeepEqual(TopKMany(db, scorers, k, opts), want) {
				t.Logf("%s TopKMany(%d scorers, k=%d) diverged from the naive rankings", name, nq, k)
				return false
			}
		}
		// Metadata views agree too: same live items in the same insertion
		// order, regardless of which shard each landed in.
		if !reflect.DeepEqual(p.sharded.Items(), p.single.Items()) {
			t.Log("sharded Items order diverged")
			return false
		}
		return p.sharded.Len() == p.single.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

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

// There is one stats row per shard, the rows account for every live and
// dead bag — the /v1/stats invariant — and compacting one shard clears
// only its own tombstone counters.
func TestShardedStatsSumToTotals(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := NewDatabaseSharded(4)
	for i := 0; i < 200; i++ {
		if err := db.Add(item(fmt.Sprintf("img-%03d", i), "l", randVec(r, 6), randVec(r, 6))); err != nil {
			t.Fatal(err)
		}
	}
	deleted := 0
	for i := 0; i < 200; i += 3 {
		if err := db.Delete(fmt.Sprintf("img-%03d", i)); err != nil {
			t.Fatal(err)
		}
		deleted++
	}
	before := totals(db)
	if before.DeadImages != deleted || before.DeadInstances != 2*deleted {
		t.Fatalf("%d deletes of 2-instance bags left %+v", deleted, before)
	}
	compactShard(db, 1)
	rows := db.ShardStats()
	if len(rows) != 4 {
		t.Fatalf("got %d shard rows", len(rows))
	}
	st := totals(db)
	if st.Images != db.Len() || st.Instances != 2*db.Len() {
		t.Fatalf("rows sum to %+v, Len %d", st, db.Len())
	}
	if st.IndexBytes != int64((st.Instances+st.DeadInstances)*db.Dim()*8) {
		t.Fatalf("index bytes %d do not cover %d live + %d dead rows", st.IndexBytes, st.Instances, st.DeadInstances)
	}
	if rows[1].DeadImages != 0 {
		t.Fatal("compacted shard still reports dead items")
	}
	if st.DeadImages == 0 || st.DeadImages >= before.DeadImages {
		t.Fatalf("dead images %d → %d across a one-shard compact", before.DeadImages, st.DeadImages)
	}
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

// Concurrent label updates against queries: labels are copy-on-write, so the
// race detector must stay silent and every query sees a consistent label for
// each result (one of the values that item has legitimately carried).
func TestConcurrentLabelUpdatesVersusQueries(t *testing.T) {
	const dim = 4
	r := rand.New(rand.NewSource(3))
	_, flat := randScorerPair(r, dim)
	db := NewDatabaseSharded(3)
	const n = 30
	for i := 0; i < n; i++ {
		if err := db.Add(item(fmt.Sprintf("img-%02d", i), "v0", randVec(r, dim))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				lists := append(TopKMany(db, []Scorer{flat, flat, flat}, 5, Options{Parallelism: 1 + g}),
					Rank(db, flat, Options{Parallelism: 1 + g}))
				for _, list := range lists {
					for _, res := range list {
						if len(res.Label) < 2 || res.Label[0] != 'v' {
							t.Errorf("torn label %q", res.Label)
							return
						}
					}
				}
				_ = db.Items()
			}
		}(g)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("img-%02d", (w*7+i)%n)
				if err := db.UpdateLabel(id, fmt.Sprintf("v%d", i+1)); err != nil {
					t.Errorf("UpdateLabel %s: %v", id, err)
					return
				}
			}
			if w == 0 {
				close(stop)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st := totals(db)
	if st.DeadImages != 0 || st.DeadInstances != 0 {
		t.Fatalf("label updates left tombstones: %+v", st)
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
