package milret

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"milret/internal/store"
	"milret/internal/synth"
)

// testDB builds a small labelled database from the synthetic object corpus.
func testDB(t *testing.T, perCat int, cats ...string) *Database {
	t.Helper()
	db, err := NewDatabase(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, c := range cats {
		want[c] = true
	}
	for _, it := range synth.ObjectsN(9, perCat) {
		if !want[it.Label] {
			continue
		}
		if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func idsOf(db *Database, label string, n int) []string {
	var out []string
	for _, id := range db.IDs() {
		if lb, _ := db.Label(id); lb == label {
			out = append(out, id)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func idsNot(db *Database, label string, n int) []string {
	var out []string
	for _, id := range db.IDs() {
		if lb, _ := db.Label(id); lb != label {
			out = append(out, id)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func TestNewDatabaseValidation(t *testing.T) {
	if _, err := NewDatabase(Options{Regions: 7}); err == nil {
		t.Fatalf("invalid region family accepted")
	}
	db, err := NewDatabase(Options{Regions: 9, Resolution: 6})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 0 {
		t.Fatalf("new database not empty")
	}
}

func TestAddImageAndMetadata(t *testing.T) {
	db := testDB(t, 3, "car", "pants")
	if db.Len() != 6 {
		t.Fatalf("Len = %d, want 6", db.Len())
	}
	labels := db.Labels()
	if len(labels) != 2 || labels[0] != "car" || labels[1] != "pants" {
		t.Fatalf("Labels = %v", labels)
	}
	if _, ok := db.Label("object-car-00"); !ok {
		t.Fatalf("Label lookup failed")
	}
	if err := db.AddImage("", "x", synth.NewCanvas(8, 8, synth.RGB{}).ToRGBA()); err == nil {
		t.Fatalf("empty ID accepted")
	}
	if err := db.AddImage("object-car-00", "x", synth.NewCanvas(8, 8, synth.RGB{}).ToRGBA()); err == nil {
		t.Fatalf("duplicate ID accepted")
	}
}

func TestTrainRetrieveEndToEnd(t *testing.T) {
	db := testDB(t, 6, "car", "pants", "lamp")
	for _, mode := range []WeightMode{Original, IdenticalWeights, ConstrainedWeights} {
		concept, err := db.Train(
			idsOf(db, "car", 3),
			idsNot(db, "car", 3),
			TrainOptions{Mode: mode, Beta: 0.5, MaxIters: 25, StartBags: 1},
		)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		got := db.RetrieveExcluding(concept, 3, append(idsOf(db, "car", 3), idsNot(db, "car", 3)...))
		if len(got) != 3 {
			t.Fatalf("%v: retrieved %d", mode, len(got))
		}
		correct := 0
		for _, r := range got {
			if r.Label == "car" {
				correct++
			}
		}
		if correct < 2 {
			t.Errorf("%v: only %d/3 of top results are cars: %+v", mode, correct, got)
		}
	}
}

func TestTrainUnknownIDs(t *testing.T) {
	db := testDB(t, 2, "car")
	if _, err := db.Train([]string{"nope"}, nil, TrainOptions{}); err == nil {
		t.Fatalf("unknown positive accepted")
	}
	if _, err := db.Train(idsOf(db, "car", 1), []string{"nope"}, TrainOptions{}); err == nil {
		t.Fatalf("unknown negative accepted")
	}
	if _, err := db.Train(nil, nil, TrainOptions{}); err == nil {
		t.Fatalf("empty positives accepted")
	}
	if _, err := db.Train(idsOf(db, "car", 1), nil, TrainOptions{Mode: WeightMode(42)}); err == nil {
		t.Fatalf("unknown mode accepted")
	}
}

func TestConceptAccessors(t *testing.T) {
	db := testDB(t, 3, "car", "lamp")
	concept, err := db.Train(idsOf(db, "car", 2), idsOf(db, "lamp", 2),
		TrainOptions{Mode: IdenticalWeights, MaxIters: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(concept.Point()) != 100 || len(concept.Weights()) != 100 {
		t.Fatalf("concept dims wrong: %d/%d", len(concept.Point()), len(concept.Weights()))
	}
	// Accessors must return copies.
	w := concept.Weights()
	w[0] = -99
	if concept.Weights()[0] == -99 {
		t.Fatalf("Weights returned aliased storage")
	}
	_ = concept.NegLogDD()
}

func TestNewConceptValidation(t *testing.T) {
	if _, err := NewConcept(nil, nil); err == nil {
		t.Fatal("empty concept accepted")
	}
	if _, err := NewConcept([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched dims accepted")
	}
	if _, err := NewConcept([]float64{1, math.NaN()}, []float64{1, 1}); err == nil {
		t.Fatal("NaN point accepted")
	}
	point := []float64{1, 2}
	weights := []float64{0.5, 2}
	c, err := NewConcept(point, weights)
	if err != nil {
		t.Fatal(err)
	}
	point[0] = -99 // NewConcept must copy
	if c.Point()[0] == -99 {
		t.Fatal("NewConcept aliased caller storage")
	}
}

// TestNewConceptRoundTrip: a concept exported via Point/Weights and
// reconstituted through NewConcept must rank identically to the original.
func TestNewConceptRoundTrip(t *testing.T) {
	db := testDB(t, 3, "car", "lamp")
	trained, err := db.Train(idsOf(db, "car", 2), idsOf(db, "lamp", 2),
		TrainOptions{Mode: ConstrainedWeights, Beta: 0.5, MaxIters: 15, StartBags: 1})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := NewConcept(trained.Point(), trained.Weights())
	if err != nil {
		t.Fatal(err)
	}
	want := db.Retrieve(trained, 10)
	got := db.Retrieve(replayed, 10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed concept ranks differently:\ngot  %v\nwant %v", got, want)
	}
}

// TestRetrieveManyMatchesRetrieve: the batched scan must return, per
// concept, exactly the single-concept retrieval — including the exclusion
// set, and on a database with no live image, one never filled and one
// emptied by deletes, where both are an empty, non-nil ranking — and must
// reject dimension mismatches and nil concepts.
func TestRetrieveManyMatchesRetrieve(t *testing.T) {
	db := testDB(t, 3, "car", "lamp", "pants")
	var concepts []*Concept
	for _, target := range []string{"car", "lamp", "pants"} {
		c, err := db.Train(idsOf(db, target, 2), idsNot(db, target, 2),
			TrainOptions{Mode: IdenticalWeights, MaxIters: 10, StartBags: 1})
		if err != nil {
			t.Fatal(err)
		}
		concepts = append(concepts, c)
	}
	exclude := idsOf(db, "car", 1)
	many, err := db.RetrieveMany(concepts, 5, exclude)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(concepts) {
		t.Fatalf("got %d rankings for %d concepts", len(many), len(concepts))
	}
	for i, c := range concepts {
		want := db.RetrieveExcluding(c, 5, exclude)
		if !reflect.DeepEqual(many[i], want) {
			t.Fatalf("concept %d:\ngot  %v\nwant %v", i, many[i], want)
		}
	}

	fresh, err := NewDatabase(Options{})
	if err != nil {
		t.Fatal(err)
	}
	emptied := testDB(t, 1, "car")
	for _, id := range emptied.IDs() {
		if err := emptied.DeleteImage(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, empty := range []*Database{fresh, emptied} {
		many, err := empty.RetrieveMany(concepts[:2], 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := [][]Result{empty.RetrieveExcluding(concepts[0], 5, nil), empty.RetrieveExcluding(concepts[1], 5, nil)}
		if !reflect.DeepEqual(many, want) {
			t.Fatalf("no live image: RetrieveMany = %#v, RetrieveExcluding per concept %#v", many, want)
		}
	}

	if _, err := db.RetrieveMany([]*Concept{nil}, 5, nil); err == nil {
		t.Fatal("nil concept accepted")
	}
	bad, err := NewConcept([]float64{1, 2}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.RetrieveMany([]*Concept{bad}, 5, nil); err == nil {
		t.Fatal("dim-mismatched concept accepted")
	}
	if out, err := db.RetrieveMany(nil, 5, nil); err != nil || out != nil {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
}

func TestRankAllCoversDatabase(t *testing.T) {
	db := testDB(t, 3, "car", "pants")
	concept, err := db.Train(idsOf(db, "car", 2), nil,
		TrainOptions{Mode: IdenticalWeights, MaxIters: 10, StartBags: 1})
	if err != nil {
		t.Fatal(err)
	}
	all := db.RankAll(concept)
	if len(all) != db.Len() {
		t.Fatalf("RankAll returned %d of %d", len(all), db.Len())
	}
	for i := 1; i < len(all); i++ {
		if all[i].Distance < all[i-1].Distance {
			t.Fatalf("ranking not ascending at %d", i)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := testDB(t, 3, "car", "pants")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("loaded %d of %d", back.Len(), db.Len())
	}
	if lb, ok := back.Label("object-car-00"); !ok || lb != "car" {
		t.Fatalf("label lost in round trip")
	}
	// A concept trained before saving ranks identically after loading.
	concept, err := db.Train(idsOf(db, "car", 2), idsOf(db, "pants", 2),
		TrainOptions{Mode: IdenticalWeights, MaxIters: 15, StartBags: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := db.RankAll(concept)
	b := back.RankAll(concept)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rankings diverge after reload at %d", i)
		}
	}

	// The zero-copy load must keep accepting new images (appends reallocate
	// rather than touch the adopted block) and keep training end to end.
	for _, it := range synth.ObjectsN(23, 1) {
		if it.Label == "lamp" {
			if err := back.AddImage(it.ID, it.Label, it.Image); err != nil {
				t.Fatal(err)
			}
		}
	}
	if back.Len() != db.Len()+1 {
		t.Fatalf("post-load AddImage: len %d, want %d", back.Len(), db.Len()+1)
	}
	if got := back.RankAll(concept); len(got) != back.Len() {
		t.Fatalf("post-load ranking covers %d of %d", len(got), back.Len())
	}

	// VerifyOnLoad on an intact file must succeed.
	if _, err := LoadDatabase(path, Options{VerifyOnLoad: true}); err != nil {
		t.Fatalf("VerifyOnLoad on intact store: %v", err)
	}
}

// The per-record stream format of the first store generation has no reader:
// such a file is refused as an unknown magic, never misread.
func TestLoadLegacyStoreFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.milret")
	header := "MILRETF1\x01\x00\x00\x00\x64\x00\x00\x00" // magic, version 1, dim 100
	if err := os.WriteFile(path, []byte(header), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDatabase(path, Options{})
	if err == nil || !strings.Contains(err.Error(), `bad magic "MILRETF1"`) {
		t.Fatalf("record-stream store: got %v, want a bad-magic refusal", err)
	}
}

func TestStatsReflectIndex(t *testing.T) {
	db := testDB(t, 2, "car")
	s := db.Stats()
	if s.Images != db.Len() || s.Dim != 100 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Instances < s.Images || s.IndexBytes != int64(s.Instances*s.Dim*8) {
		t.Fatalf("implausible stats: %+v", s)
	}
}

func TestLoadDatabaseDimMismatch(t *testing.T) {
	db := testDB(t, 2, "car")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDatabase(path, Options{Resolution: 6}); err == nil {
		t.Fatalf("dim mismatch accepted")
	}
}

// The store's dimensionality comes from its snapshot header, not from
// whichever record happens to be first: a store saved empty and populated
// entirely through its log reopens without configuration, an explicitly
// wrong resolution is still refused, and so are shard headers that disagree.
func TestLoadDatabaseDimFromHeader(t *testing.T) {
	db, err := NewDatabase(Options{Resolution: 6, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, it := range synth.ObjectsN(5, 1)[:3] {
		if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if back.Len() != 3 || back.Stats().Dim != 36 {
		t.Fatalf("reopened %d images at dim %d, want 3 at 36", back.Len(), back.Stats().Dim)
	}
	back.Close()

	if _, err := LoadDatabase(path, Options{Resolution: 10}); err == nil {
		t.Fatal("explicitly wrong resolution accepted")
	}

	// Rewrite one shard's snapshot at another dimensionality. Its log no
	// longer matches it and is skipped; only the header gives it away.
	if err := store.Create(store.ShardPath(path, 1), 100, [][]store.Record{nil}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDatabase(path, Options{}); err == nil {
		t.Fatal("shard headers that disagree on dim accepted")
	}
}

func TestEvaluationHelpers(t *testing.T) {
	results := []Result{
		{ID: "a", Label: "x", Distance: 1},
		{ID: "b", Label: "y", Distance: 2},
		{ID: "c", Label: "x", Distance: 3},
	}
	pr := PrecisionRecallCurve(results, "x")
	if len(pr) != 3 || pr[0].Precision != 1 || pr[0].Recall != 0.5 {
		t.Fatalf("PR curve wrong: %+v", pr)
	}
	if pr[2].Recall != 1 {
		t.Fatalf("recall at the last rank = %v, want 1", pr[2].Recall)
	}
	ap := AveragePrecision(results, "x")
	if ap <= 0.5 || ap > 1 {
		t.Fatalf("AP = %v", ap)
	}
}

func TestWeightModeStrings(t *testing.T) {
	for m, want := range map[WeightMode]string{
		Original:           "original",
		IdenticalWeights:   "identical",
		ConstrainedWeights: "constrained",
		WeightMode(2):      "unknown", // the retired α-hack's number
		WeightMode(9):      "unknown",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

// Every mode's name parses back to the mode, and nothing else parses.
func TestParseWeightModeRoundTrip(t *testing.T) {
	for _, m := range []WeightMode{Original, IdenticalWeights, ConstrainedWeights} {
		if got, err := ParseWeightMode(m.String()); err != nil || got != m {
			t.Errorf("ParseWeightMode(%q) = %v, %v", m, got, err)
		}
	}
	for _, name := range []string{"", "unknown", "Original", "sum-constraint", "alpha-hack"} {
		if m, err := ParseWeightMode(name); err == nil {
			t.Errorf("ParseWeightMode(%q) = %v, want an error", name, m)
		}
	}
}

func ExampleDatabase_Retrieve() {
	db, _ := NewDatabase(Options{})
	for _, it := range synth.ObjectsN(1, 2) {
		if it.Label == "car" || it.Label == "lamp" {
			_ = db.AddImage(it.ID, it.Label, it.Image)
		}
	}
	concept, _ := db.Train([]string{"object-car-00"}, []string{"object-lamp-00"},
		TrainOptions{Mode: IdenticalWeights, MaxIters: 10})
	top := db.RetrieveExcluding(concept, 1, []string{"object-car-00", "object-lamp-00"})
	fmt.Println(top[0].Label)
	// Output: car
}

func TestExplainNamesRegion(t *testing.T) {
	db := testDB(t, 3, "car", "lamp")
	concept, err := db.Train(idsOf(db, "car", 2), idsOf(db, "lamp", 2),
		TrainOptions{Mode: IdenticalWeights, MaxIters: 15, StartBags: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := db.Explain(concept, "object-car-02")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Region == "" {
		t.Fatalf("explanation has no region name")
	}
	if ex.Distance < 0 {
		t.Fatalf("negative distance %v", ex.Distance)
	}
	// The explanation's distance must equal the image's ranking score.
	for _, r := range db.RankAll(concept) {
		if r.ID == "object-car-02" && r.Distance != ex.Distance {
			t.Fatalf("Explain distance %v != ranking distance %v", ex.Distance, r.Distance)
		}
	}
	if _, err := db.Explain(concept, "ghost"); err == nil {
		t.Fatalf("unknown image accepted")
	}
}

func TestExplainSurvivesSaveLoad(t *testing.T) {
	db := testDB(t, 3, "car", "lamp")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	concept, err := back.Train(idsOf(back, "car", 2), idsOf(back, "lamp", 2),
		TrainOptions{Mode: IdenticalWeights, MaxIters: 15, StartBags: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := back.Explain(concept, "object-car-02")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Region == "" {
		t.Fatalf("region names lost through persistence")
	}
}

func TestDatabaseClose(t *testing.T) {
	db := testDB(t, 2, "car")
	if err := db.Close(); err != nil {
		t.Fatalf("Close on in-memory database: %v", err)
	}
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != db.Len() {
		t.Fatalf("loaded %d of %d", loaded.Len(), db.Len())
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("Close on loaded database: %v", err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// Overlapping Close calls must be safe: the journal retires its log writers
// under its lock and every adopted snapshot serializes its own release, so
// no mapping is released twice and nothing is raced on. The race detector
// is the assertion.
func TestCloseConcurrent(t *testing.T) {
	db := testDB(t, 2, "car")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := back.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
}
