package retrieval

import (
	"fmt"
	"math/rand"
	"testing"

	"milret/internal/mat"
	"milret/internal/mil"
)

// pointScorer scores a bag by the plain min distance to a point: unit
// weights.
type pointScorer struct{ p mat.Vector }

func (s pointScorer) PointWeights() (point, weights []float64) {
	return s.p, mat.NewVector(len(s.p)).Fill(1)
}

func item(id, label string, vecs ...mat.Vector) Item {
	return Item{ID: id, Label: label, Bag: &mil.Bag{ID: id, Instances: vecs}}
}

func buildDB(t *testing.T, items ...Item) *Database {
	t.Helper()
	db := NewDatabase()
	for _, it := range items {
		if err := db.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestAddValidation(t *testing.T) {
	db := NewDatabase()
	if err := db.Add(Item{ID: "x"}); err == nil {
		t.Fatalf("nil bag accepted")
	}
	if err := db.Add(item("a", "l", mat.Vector{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(item("a", "l", mat.Vector{3, 4})); err == nil {
		t.Fatalf("duplicate ID accepted")
	}
	if err := db.Add(item("b", "l", mat.Vector{1})); err == nil {
		t.Fatalf("dimension mismatch accepted")
	}
	if db.Len() != 1 || db.Dim() != 2 {
		t.Fatalf("Len=%d Dim=%d", db.Len(), db.Dim())
	}
}

// weightedScorer is a concept geometry: a point and per-dimension weights.
type weightedScorer struct{ p, w mat.Vector }

// flatScorer is the same geometry exposed as a Scorer, for the engine.
type flatScorer struct{ weightedScorer }

func (s flatScorer) PointWeights() (point, weights []float64) { return s.p, s.w }

var _ Scorer = flatScorer{}

func randWeightedDB(t testing.TB, r *rand.Rand, n, dim, maxInst int) *Database {
	db := NewDatabase()
	for i := 0; i < n; i++ {
		nInst := 1 + r.Intn(maxInst)
		if i%6 == 0 {
			nInst = 1 // keep single-instance bags in the mix
		}
		var vecs []mat.Vector
		for j := 0; j < nInst; j++ {
			v := mat.NewVector(dim)
			for k := range v {
				v[k] = r.NormFloat64()
			}
			vecs = append(vecs, v)
		}
		if err := db.Add(item(fmt.Sprintf("img-%03d", i), fmt.Sprintf("cat%d", i%3), vecs...)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func randScorerPair(r *rand.Rand, dim int) (weightedScorer, flatScorer) {
	p := mat.NewVector(dim)
	w := mat.NewVector(dim)
	for k := 0; k < dim; k++ {
		p[k] = r.NormFloat64()
		w[k] = r.Float64() * 2
	}
	naive := weightedScorer{p: p, w: w}
	return naive, flatScorer{naive}
}

// TestNewDatabaseFromFlat: a database adopting a flat block must keep
// serving after post-load Adds and reject inconsistent geometry. How it
// ranks is TestScanSpine's, whose flat cases hold it to the model.
func TestNewDatabaseFromFlat(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	dim := 7
	added := randWeightedDB(t, r, 20, dim, 3)

	items := added.Items()
	var data []float64
	for _, it := range items {
		for _, inst := range it.Bag.Instances {
			data = append(data, inst...)
		}
	}
	adopted, err := NewDatabaseFromFlat(items, dim, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := adopted.Add(item("post-load", "l", make(mat.Vector, dim))); err != nil {
		t.Fatal(err)
	}
	if adopted.Len() != added.Len()+1 {
		t.Fatalf("post-load Add: len %d", adopted.Len())
	}
	if _, ok := adopted.ByID("post-load"); !ok {
		t.Fatal("post-load item not found")
	}

	if _, err := NewDatabaseFromFlat(items, dim, data[:len(data)-1]); err == nil {
		t.Fatal("short block accepted")
	}
	if _, err := NewDatabaseFromFlat([]Item{items[0], items[0]}, dim, nil); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if _, err := NewDatabaseFromFlat(nil, 0, []float64{1}); err == nil {
		t.Fatal("orphan block accepted")
	}
	empty, err := NewDatabaseFromFlat(nil, 0, nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty adoption = %v, %v", empty, err)
	}
}

// lyingScorer reports point/weight geometry whose dimensionality does not
// match the database.
type lyingScorer struct{}

func (lyingScorer) PointWeights() (p, w []float64) { return []float64{0}, []float64{1} }

// A scorer whose geometry does not match the database dimensionality is
// rejected up front: every scan panics on the caller's own goroutine —
// recoverable here — before a worker starts, a batch with well-formed
// batch-mates included. There is no second engine to "accept" it. An empty
// database has no dimensionality to mismatch and ranks empty.
func TestFlatPathRequiresMatchingDim(t *testing.T) {
	db := buildDB(t,
		item("a", "l", mat.Vector{2, 9}),
		item("b", "l", mat.Vector{1, 9}),
		item("c", "l", mat.Vector{3, 9}),
	)
	ok := pointScorer{mat.Vector{0, 0}}
	for name, scan := range map[string]func(){
		"Rank":     func() { Rank(db, lyingScorer{}, Options{}) },
		"TopK":     func() { TopK(db, lyingScorer{}, 2, Options{Parallelism: 4}) },
		"TopKMany": func() { TopKMany(db, []Scorer{ok, ok, lyingScorer{}}, 2, Options{Parallelism: 4}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted mismatched geometry", name)
				}
			}()
			scan()
		}()
	}
	empty := NewDatabase()
	if res := Rank(empty, lyingScorer{}, Options{}); res == nil || len(res) != 0 {
		t.Fatalf("empty Rank = %v", res)
	}
	if res := TopK(empty, lyingScorer{}, 3, Options{}); res == nil || len(res) != 0 {
		t.Fatalf("empty TopK = %v", res)
	}
	if res := TopKMany(empty, []Scorer{ok, lyingScorer{}}, 3, Options{}); len(res) != 2 || res[1] == nil || len(res[1]) != 0 {
		t.Fatalf("empty TopKMany = %v", res)
	}
}
