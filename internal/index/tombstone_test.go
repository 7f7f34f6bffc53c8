package index

import (
	"math/rand"
	"testing"

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
