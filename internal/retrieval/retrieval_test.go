package retrieval

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"milret/internal/mat"
	"milret/internal/mil"
)

// pointScorer scores a bag by the plain min distance to a point: unit
// weights.
type pointScorer struct{ p mat.Vector }

func (s pointScorer) PointWeights() (point, weights []float64) {
	return s.p, mat.NewVector(len(s.p)).Fill(1)
}

// bagDister is what the naive reference ranks by; it is not a Scorer.
type bagDister interface{ BagDist(*mil.Bag) float64 }

// naiveRank is the tests' reference ranking and shares nothing with the scan
// engine: every live, non-excluded item scored one after another through
// BagDist, then sorted by (Dist, ID). No flat block, heap, cutoff or worker.
func naiveRank(db *Database, s bagDister, opts Options) []Result {
	out := []Result{}
	for _, it := range db.Items() {
		if !opts.Exclude[it.ID] {
			out = append(out, Result{ID: it.ID, Label: it.Label, Dist: s.BagDist(it.Bag)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// naiveTopK is the head of naiveRank.
func naiveTopK(db *Database, s bagDister, k int, opts Options) []Result {
	full := naiveRank(db, s, opts)
	if k < len(full) {
		full = full[:k]
	}
	return full
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

func randDB(t *testing.T, r *rand.Rand, n, dim, inst int) *Database {
	t.Helper()
	db := NewDatabase()
	for i := 0; i < n; i++ {
		var vecs []mat.Vector
		for j := 0; j < inst; j++ {
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

func TestByID(t *testing.T) {
	db := buildDB(t, item("a", "x", mat.Vector{1}), item("b", "y", mat.Vector{2}))
	it, ok := db.ByID("b")
	if !ok || it.Label != "y" {
		t.Fatalf("ByID failed: %+v %v", it, ok)
	}
	if _, ok := db.ByID("zzz"); ok {
		t.Fatalf("missing ID found")
	}
}

func TestRankOrdering(t *testing.T) {
	db := buildDB(t,
		item("far", "l", mat.Vector{10, 0}),
		item("near", "l", mat.Vector{1, 0}),
		item("mid", "l", mat.Vector{5, 0}),
	)
	res := Rank(db, pointScorer{mat.Vector{0, 0}}, Options{})
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].ID != "near" || res[1].ID != "mid" || res[2].ID != "far" {
		t.Fatalf("wrong order: %+v", res)
	}
}

func TestRankMinOverInstances(t *testing.T) {
	db := buildDB(t,
		item("multi", "l", mat.Vector{100, 0}, mat.Vector{1, 0}),
		item("single", "l", mat.Vector{2, 0}),
	)
	res := Rank(db, pointScorer{mat.Vector{0, 0}}, Options{})
	if res[0].ID != "multi" {
		t.Fatalf("bag distance must be min over instances: %+v", res)
	}
}

func TestRankDeterministicTies(t *testing.T) {
	db := buildDB(t,
		item("b", "l", mat.Vector{1, 0}),
		item("a", "l", mat.Vector{1, 0}),
		item("c", "l", mat.Vector{1, 0}),
	)
	res := Rank(db, pointScorer{mat.Vector{0, 0}}, Options{})
	if res[0].ID != "a" || res[1].ID != "b" || res[2].ID != "c" {
		t.Fatalf("ties must break by ID: %+v", res)
	}
}

func TestRankExcludes(t *testing.T) {
	db := buildDB(t,
		item("keep", "l", mat.Vector{1}),
		item("drop", "l", mat.Vector{0}),
	)
	res := Rank(db, pointScorer{mat.Vector{0}}, Options{Exclude: map[string]bool{"drop": true}})
	if len(res) != 1 || res[0].ID != "keep" {
		t.Fatalf("exclusion failed: %+v", res)
	}
}

func TestTopKMatchesRank(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	db := randDB(t, r, 50, 4, 3)
	s := pointScorer{mat.NewVector(4)}
	full := Rank(db, s, Options{})
	for _, k := range []int{1, 3, 10, 49, 50, 100} {
		top := TopK(db, s, k, Options{})
		want := k
		if want > len(full) {
			want = len(full)
		}
		if len(top) != want {
			t.Fatalf("TopK(%d) returned %d results", k, len(top))
		}
		for i := range top {
			if top[i] != full[i] {
				t.Fatalf("TopK(%d)[%d] = %+v, Rank[%d] = %+v", k, i, top[i], i, full[i])
			}
		}
	}
}

func TestTopKZero(t *testing.T) {
	db := buildDB(t, item("a", "l", mat.Vector{1}))
	if res := TopK(db, pointScorer{mat.Vector{0}}, 0, Options{}); res != nil {
		t.Fatalf("TopK(0) = %+v", res)
	}
}

func TestRankEmptyDatabase(t *testing.T) {
	db := NewDatabase()
	if res := Rank(db, pointScorer{mat.Vector{0}}, Options{}); len(res) != 0 {
		t.Fatalf("empty DB ranked: %+v", res)
	}
}

// Property: parallel and serial scans produce identical rankings.
func TestQuickParallelMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(t, r, 1+r.Intn(40), 3, 2)
		s := pointScorer{mat.Vector{0.5, -0.5, 0}}
		serial := Rank(db, s, Options{Parallelism: 1})
		parallel := Rank(db, s, Options{Parallelism: 8})
		return reflect.DeepEqual(serial, parallel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every result distance is non-negative and ascending.
func TestQuickRankMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randDB(t, r, 1+r.Intn(30), 2, 3)
		res := Rank(db, pointScorer{mat.Vector{0, 0}}, Options{})
		for i := range res {
			if res[i].Dist < 0 {
				return false
			}
			if i > 0 && res[i].Dist < res[i-1].Dist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// weightedScorer is the naive reference's scorer (BagDist only, not a
// Scorer): full weighted squared distance per instance, min over the bag.
type weightedScorer struct{ p, w mat.Vector }

func (s weightedScorer) BagDist(b *mil.Bag) float64 {
	best := 0.0
	for j, inst := range b.Instances {
		d := mat.WeightedSqDist(s.p, inst, s.w)
		if j == 0 || d < best {
			best = d
		}
	}
	return best
}

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

// Property: the flat columnar engine produces bit-identical rankings
// (distances and ID tie-breaks) to the naive per-bag reference across
// random databases, random weights, and random exclusions.
func TestQuickFlatRankMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(35)
		db := randWeightedDB(t, r, 1+r.Intn(50), dim, 4)
		naive, flat := randScorerPair(r, dim)
		exclude := map[string]bool{}
		for i := 0; i < db.Len(); i++ {
			if r.Intn(5) == 0 {
				exclude[db.Get(i).ID] = true
			}
		}
		opts := Options{Exclude: exclude, Parallelism: 1 + r.Intn(8)}
		return reflect.DeepEqual(Rank(db, flat, opts), naiveRank(db, naive, opts))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: flat TopK equals naive TopK for k ∈ {1, n/2, n, n+5}, with
// exclusions — including k > len(db).
func TestQuickFlatTopKMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(35)
		n := 1 + r.Intn(50)
		db := randWeightedDB(t, r, n, dim, 4)
		naive, flat := randScorerPair(r, dim)
		exclude := map[string]bool{}
		for i := 0; i < db.Len(); i++ {
			if r.Intn(6) == 0 {
				exclude[db.Get(i).ID] = true
			}
		}
		opts := Options{Exclude: exclude, Parallelism: 1 + r.Intn(8)}
		for _, k := range []int{1, n / 2, n, n + 5} {
			if k < 1 {
				k = 1
			}
			if !reflect.DeepEqual(TopK(db, flat, k, opts), naiveTopK(db, naive, k, opts)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestNewDatabaseFromFlat: a database adopting a flat block must rank
// identically to one built by Add, keep serving after post-load Adds, and
// reject inconsistent geometry.
func TestNewDatabaseFromFlat(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	dim := 7
	added := randDB(t, r, 20, dim, 3)

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
	naive, flat := randScorerPair(r, dim)
	if !reflect.DeepEqual(Rank(adopted, flat, Options{}), Rank(added, flat, Options{})) {
		t.Fatal("adopted database ranks differently")
	}
	if !reflect.DeepEqual(Rank(adopted, flat, Options{}), naiveRank(adopted, naive, Options{})) {
		t.Fatal("adopted database diverged from the naive reference over its own items")
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

// Property: TopKMany equals per-scorer TopK, element by element — armed
// scorers and the occasional negative-weight one that cannot arm its filter
// side by side.
func TestQuickTopKManyMatchesTopK(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(30)
		n := 1 + r.Intn(40)
		db := randWeightedDB(t, r, n, dim, 3)
		nq := 1 + r.Intn(5)
		scorers := make([]Scorer, nq)
		for i := range scorers {
			_, flat := randScorerPair(r, dim)
			if r.Intn(4) == 0 {
				flat.w[r.Intn(dim)] *= -1
			}
			scorers[i] = flat
		}
		exclude := map[string]bool{}
		for i := 0; i < db.Len(); i++ {
			if r.Intn(6) == 0 {
				exclude[db.Get(i).ID] = true
			}
		}
		opts := Options{Exclude: exclude, Parallelism: 1 + r.Intn(8)}
		k := 1 + r.Intn(n+4)
		many := TopKMany(db, scorers, k, opts)
		if len(many) != nq {
			return false
		}
		for i, s := range scorers {
			if !reflect.DeepEqual(many[i], TopK(db, s, k, opts)) {
				t.Logf("seed %d scorer %d diverged", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKManyEmpty(t *testing.T) {
	db := buildDB(t, item("a", "l", mat.Vector{1, 2}))
	if got := TopKMany(db, nil, 5, Options{}); got != nil {
		t.Fatalf("empty scorer batch = %v", got)
	}
}

// The flat path must also match when ties are dense: identical bags rank
// purely by ID on both paths.
func TestFlatTieBreaksMatchNaive(t *testing.T) {
	db := NewDatabase()
	for _, id := range []string{"c", "a", "d", "b"} {
		if err := db.Add(item(id, "l", mat.Vector{1, 0}, mat.Vector{3, 3})); err != nil {
			t.Fatal(err)
		}
	}
	naive := weightedScorer{p: mat.Vector{0, 0}, w: mat.Vector{1, 1}}
	flat := flatScorer{naive}
	got := TopK(db, flat, 2, Options{})
	want := naiveTopK(db, naive, 2, Options{})
	if !reflect.DeepEqual(got, want) || got[0].ID != "a" || got[1].ID != "b" {
		t.Fatalf("tie break mismatch: got %+v want %+v", got, want)
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

// Add racing TopK/Rank on the flat index: the race detector must stay
// silent, no query may observe torn data, and a query issued after an Add
// returns must see the new item.
func TestConcurrentAddVersusQueries(t *testing.T) {
	const (
		writers   = 4
		perWriter = 30
		dim       = 12
	)
	r := rand.New(rand.NewSource(21))
	_, flat := randScorerPair(r, dim)
	db := NewDatabase()
	if err := db.Add(item("seed-0", "l", mat.NewVector(dim).Fill(5))); err != nil {
		t.Fatal(err)
	}

	var readers, writersWG sync.WaitGroup
	stop := make(chan struct{})
	// Readers hammer Rank and TopK while writers add.
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
				top := TopK(db, flat, 7, Options{Parallelism: 1 + g})
				if len(top) > 7 {
					t.Errorf("TopK returned %d results", len(top))
					return
				}
			}
		}(g)
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%02d", w, i)
				var vecs []mat.Vector
				for j := 0; j < 1+r.Intn(3); j++ {
					v := mat.NewVector(dim)
					for k := range v {
						v[k] = r.NormFloat64()
					}
					vecs = append(vecs, v)
				}
				if err := db.Add(item(id, "l", vecs...)); err != nil {
					t.Errorf("Add %s: %v", id, err)
					return
				}
				// Read-your-write: a full rank after Add returns must
				// include the item just added.
				res := Rank(db, flat, Options{})
				found := false
				for _, rr := range res {
					if rr.ID == id {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("Rank after Add(%s) does not see it", id)
					return
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	if t.Failed() {
		t.FailNow()
	}
	if got, want := db.Len(), 1+writers*perWriter; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	// Final state must match a from-scratch rebuild exactly.
	rebuilt := NewDatabase()
	for _, it := range db.Items() {
		if err := rebuilt.Add(it); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(Rank(db, flat, Options{}), Rank(rebuilt, flat, Options{})) {
		t.Fatal("incrementally built index diverged from rebuild")
	}
}

func TestConcurrentReadsDuringAdds(t *testing.T) {
	db := NewDatabase()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = db.Add(item(fmt.Sprintf("w%d-%d", w, i), "l", mat.Vector{float64(i)}))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = db.Len()
			_ = db.Items()
			_, _ = db.ByID("w0-1")
		}
	}()
	wg.Wait()
	if db.Len() != 200 {
		t.Fatalf("Len = %d, want 200", db.Len())
	}
}

// Regression test: the out-of-range panic in Get must capture the live
// count while the read lock is still held. An earlier version re-read
// len(sh.items) after RUnlock to build the panic message, which raced
// with concurrent Adds growing the slice (visible under -race).
func TestGetOutOfRangePanicRace(t *testing.T) {
	db := buildDB(t, item("a", "l", mat.Vector{1}))
	stop := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Add(item(fmt.Sprintf("extra-%d", i), "l", mat.Vector{2})); err != nil {
				return
			}
			if i == 0 {
				close(started)
			}
		}
	}()
	// Only start probing once the mutator is demonstrably running, so the
	// panicking Gets genuinely overlap concurrent Adds.
	<-started
	for i := 0; i < 200; i++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("Get out of range did not panic")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "retrieval: Get(1000000) of") {
					t.Fatalf("unexpected panic payload %v", r)
				}
			}()
			db.Get(1000000)
		}()
	}
	close(stop)
	wg.Wait()
}
