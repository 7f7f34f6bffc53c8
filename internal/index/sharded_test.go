package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"milret/internal/mat"
)

// buildShardedPair appends the same random bags to one single-block index
// and to nShards per-shard indexes (round-robin placement — the scan
// contract is placement-agnostic), optionally tombstoning a random subset in
// both. It returns the single-block snapshot and the sharded view.
func buildShardedPair(t *testing.T, r *rand.Rand, n, dim, maxInst, nShards int, withDeletes bool) (Snapshot, Sharded) {
	t.Helper()
	single := New()
	shards := make([]*Index, nShards)
	for i := range shards {
		shards[i] = New()
	}
	slot := make([]int, n) // bag i's position within its shard
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("img-%04d", i)
		label := fmt.Sprintf("cat%d", i%3)
		nInst := 1 + r.Intn(maxInst)
		insts := make([]mat.Vector, nInst)
		for j := range insts {
			v := make(mat.Vector, dim)
			for k := range v {
				v[k] = r.NormFloat64()
			}
			insts[j] = v
		}
		if err := single.Append(id, label, insts); err != nil {
			t.Fatal(err)
		}
		sh := shards[i%nShards]
		slot[i] = len(sh.ids)
		if err := sh.Append(id, label, insts); err != nil {
			t.Fatal(err)
		}
	}
	if withDeletes {
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				if err := single.Delete(i); err != nil {
					t.Fatal(err)
				}
				if err := shards[i%nShards].Delete(slot[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	view := make(Sharded, nShards)
	for i, sh := range shards {
		view[i] = sh.Snapshot()
	}
	return single.Snapshot(), view
}

// The tentpole acceptance property at the index layer: fan-out/merge scans
// over N shards are bit-identical — distances, labels, ID tie-breaks — to
// the same scans over one block holding all the bags, with and without
// tombstones, across random shard counts, parallelism, exclusions and k.
func TestQuickShardedMatchesSingleBlock(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(20)
		n := 1 + r.Intn(60)
		nShards := 1 + r.Intn(5)
		single, sharded := buildShardedPair(t, r, n, dim, 3, nShards, r.Intn(2) == 0)

		q := randQueryFor(r, dim)
		q2 := randQueryFor(r, dim)
		exclude := map[string]bool{}
		for i := 0; i < n; i++ {
			if r.Intn(6) == 0 {
				exclude[fmt.Sprintf("img-%04d", i)] = true
			}
		}
		par := 1 + r.Intn(8)
		if !reflect.DeepEqual(sharded.Rank(q, exclude, par), Sharded{single}.Rank(q, exclude, par)) {
			t.Log("sharded Rank diverged")
			return false
		}
		// Top-k over any split is the head of the single-block exhaustive
		// ranking (see rankHead in prune_test.go for why not TopK ≡ TopK).
		for _, k := range []int{1, n / 2, n, n + 7} {
			if k < 1 {
				k = 1
			}
			if !reflect.DeepEqual(sharded.TopK(q, k, exclude, par), rankHead(Sharded{single}, q, k, exclude)) {
				t.Logf("sharded TopK(%d) diverged", k)
				return false
			}
		}
		k := 1 + r.Intn(n)
		got := sharded.MultiTopK([]Query{q, q2}, k, exclude, par)
		want := [][]Result{rankHead(Sharded{single}, q, k, exclude), rankHead(Sharded{single}, q2, k, exclude)}
		if !reflect.DeepEqual(got, want) {
			t.Logf("sharded MultiTopK(%d) diverged", k)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Ties at the k-th boundary must break by ID across shard boundaries too:
// identical bags land in different shards and the merged order must match
// the single-block order exactly.
func TestShardedCrossShardTieBreaks(t *testing.T) {
	ids := []string{"d", "a", "c", "b", "f", "e"}
	single := New()
	sharded := []*Index{New(), New()}
	for i, id := range ids {
		insts := []mat.Vector{{1, 0}}
		if err := single.Append(id, "l", insts); err != nil {
			t.Fatal(err)
		}
		if err := sharded[i%2].Append(id, "l", insts); err != nil {
			t.Fatal(err)
		}
	}
	view := Sharded{sharded[0].Snapshot(), sharded[1].Snapshot()}
	q := Query{Point: []float64{0, 0}, Weights: []float64{1, 1}}
	for k := 1; k <= len(ids)+1; k++ {
		got := view.TopK(q, k, nil, 3)
		want := rankHead(Sharded{single.Snapshot()}, q, k, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: got %+v want %+v", k, got, want)
		}
	}
}

// Empty and all-empty shard views must behave like empty snapshots.
func TestShardedEmptyShards(t *testing.T) {
	empty := Sharded{New().Snapshot(), New().Snapshot()}
	q := Query{Point: []float64{0}, Weights: []float64{1}}
	if got := empty.TopK(q, 3, nil, 2); got == nil || len(got) != 0 {
		t.Fatalf("TopK over empty shards = %+v", got)
	}
	if got := empty.Rank(q, nil, 2); len(got) != 0 {
		t.Fatalf("Rank over empty shards = %+v", got)
	}
	outs := empty.MultiTopK([]Query{q}, 3, nil, 2)
	if len(outs) != 1 || len(outs[0]) != 0 {
		t.Fatalf("MultiTopK over empty shards = %+v", outs)
	}

	// One populated shard among empties: results come through unscathed.
	x := New()
	if err := x.Append("only", "l", []mat.Vector{{2}}); err != nil {
		t.Fatal(err)
	}
	mixed := Sharded{New().Snapshot(), x.Snapshot(), New().Snapshot()}
	got := mixed.TopK(q, 5, nil, 4)
	if len(got) != 1 || got[0].ID != "only" || got[0].Dist != 4 {
		t.Fatalf("mixed shards TopK = %+v", got)
	}
}

// UpdateLabel is metadata-only and copy-on-write: no rows move, snapshots
// taken before the update keep the old label, and scans over old snapshots
// race-free while labels mutate (the -race build of the retrieval tests
// exercises the concurrent side).
func TestUpdateLabelSemantics(t *testing.T) {
	x := New()
	if err := x.UpdateLabel(0, "l"); err == nil {
		t.Fatal("label update on empty index accepted")
	}
	for i, id := range []string{"a", "b"} {
		if err := x.Append(id, "old", []mat.Vector{{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	before := x.Snapshot()
	if err := x.UpdateLabel(1, "new"); err != nil {
		t.Fatal(err)
	}
	after := x.Snapshot()
	q := Query{Point: []float64{0}, Weights: []float64{1}}
	if got := (Sharded{before}).Rank(q, nil, 1)[1].Label; got != "old" {
		t.Fatalf("pre-update snapshot sees %q", got)
	}
	if got := (Sharded{after}).Rank(q, nil, 1)[1].Label; got != "new" {
		t.Fatalf("post-update snapshot sees %q", got)
	}
	if x.Instances() != 2 || x.Dead() != 0 {
		t.Fatalf("label update moved rows: %d instances, %d dead", x.Instances(), x.Dead())
	}
	if err := x.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := x.UpdateLabel(1, "x"); err == nil {
		t.Fatal("label update of deleted bag accepted")
	}
	if err := x.UpdateLabel(5, "x"); err == nil {
		t.Fatal("label update out of range accepted")
	}
}
