package retrieval

import (
	"math/rand"
	"testing"

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

func randVec(r *rand.Rand, dim int) mat.Vector {
	v := mat.NewVector(dim)
	for k := range v {
		v[k] = r.NormFloat64()
	}
	return v
}
