package index

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"milret/internal/mat"
)

func randQueryFor(r *rand.Rand, dim int) Query {
	q := Query{Point: make([]float64, dim), Weights: make([]float64, dim)}
	for k := 0; k < dim; k++ {
		q.Point[k] = r.NormFloat64()
		q.Weights[k] = r.Float64() * 2
	}
	return q
}

func TestDeleteValidation(t *testing.T) {
	x := New()
	if err := x.Delete(0); err == nil {
		t.Fatal("delete on empty index accepted")
	}
	if err := x.Append("a", "l", []mat.Vector{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete(-1); err == nil {
		t.Fatal("negative slot accepted")
	}
	if err := x.Delete(1); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if err := x.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete(0); err == nil {
		t.Fatal("double delete accepted")
	}
	if !x.IsDead(0) || x.Live() != 0 || x.Dead() != 1 || x.DeadInstances() != 1 {
		t.Fatalf("counters: live=%d dead=%d deadInst=%d", x.Live(), x.Dead(), x.DeadInstances())
	}
}

// Property: Rank/TopK/MultiTopK over an index with tombstones are identical
// to the same scans over an index rebuilt from the live bags alone.
func TestQuickDeleteMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(20)
		n := 2 + r.Intn(40)
		x, bags, labels := randIndex(r, n, dim, 4)

		// Tombstone a random subset (occasionally everything).
		deleted := map[string]bool{}
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				if err := x.Delete(i); err != nil {
					t.Fatal(err)
				}
				deleted[x.ids[i]] = true
			}
		}
		rebuilt := New()
		for i := 0; i < n; i++ {
			id := x.ids[i]
			if deleted[id] {
				continue
			}
			if err := rebuilt.Append(id, labels[id], bags[id]); err != nil {
				t.Fatal(err)
			}
		}

		q := randQueryFor(r, dim)
		q2 := randQueryFor(r, dim)
		exclude := map[string]bool{}
		for id := range bags {
			if r.Intn(6) == 0 {
				exclude[id] = true
			}
		}
		par := 1 + r.Intn(4)
		s, rs := x.Snapshot(), rebuilt.Snapshot()
		if !reflect.DeepEqual(Sharded{s}.Rank(q, exclude, par), Sharded{rs}.Rank(q, exclude, par)) {
			t.Log("Rank diverged")
			return false
		}
		for _, k := range []int{1, n / 2, n + 3} {
			if !reflect.DeepEqual(Sharded{s}.TopK(q, k, exclude, par), Sharded{rs}.TopK(q, k, exclude, par)) {
				t.Logf("TopK(%d) diverged", k)
				return false
			}
		}
		qs := []Query{q, q2}
		if !reflect.DeepEqual(Sharded{s}.MultiTopK(qs, 3, exclude, par), Sharded{rs}.MultiTopK(qs, 3, exclude, par)) {
			t.Log("MultiTopK diverged")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A snapshot taken before a delete keeps seeing the bag; one taken after
// does not — the mask is copied per snapshot.
func TestSnapshotIsolatedFromDelete(t *testing.T) {
	x := New()
	for i, id := range []string{"a", "b", "c"} {
		if err := x.Append(id, "l", []mat.Vector{{float64(i), 0}}); err != nil {
			t.Fatal(err)
		}
	}
	before := x.Snapshot()
	if err := x.Delete(1); err != nil {
		t.Fatal(err)
	}
	after := x.Snapshot()
	q := Query{Point: []float64{0, 0}, Weights: []float64{1, 1}}
	if got := len(Sharded{before}.Rank(q, nil, 1)); got != 3 {
		t.Fatalf("pre-delete snapshot sees %d bags, want 3", got)
	}
	if got := len(Sharded{after}.Rank(q, nil, 1)); got != 2 {
		t.Fatalf("post-delete snapshot sees %d bags, want 2", got)
	}
	if before.isDead(1) || !after.isDead(1) {
		t.Fatal("tombstone mask leaked across snapshots")
	}
}

// Appends after deletes must leave the new bags alive (the mask only grows
// word-by-word on Delete).
func TestAppendAfterDelete(t *testing.T) {
	x := New()
	for i := 0; i < 70; i++ { // cross a 64-bit mask word boundary
		if err := x.Append(ids70[i], "l", []mat.Vector{{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := x.Append("post", "l", []mat.Vector{{0.5}}); err != nil {
		t.Fatal(err)
	}
	if x.IsDead(70) {
		t.Fatal("appended bag born dead")
	}
	s := x.Snapshot()
	res := Sharded{s}.Rank(Query{Point: []float64{0}, Weights: []float64{1}}, nil, 1)
	if len(res) != 70 { // 70 appended +1 new -1 deleted
		t.Fatalf("rank sees %d bags, want 70", len(res))
	}
	if res[0].ID != "post" {
		t.Fatalf("closest bag %q, want post", res[0].ID)
	}
}

var ids70 = func() []string {
	out := make([]string, 70)
	for i := range out {
		out[i] = string(rune('A'+i/26)) + string(rune('a'+i%26))
	}
	return out
}()
