package milret

import (
	"reflect"
	"testing"

	"milret/internal/synth"
)

// recallDB builds a database image by image, plus a twin from testDB
// holding the identical corpus.
func recallDB(t *testing.T) (*Database, *Database) {
	t.Helper()
	pruned, err := NewDatabase(Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact := testDB(t, 4, "car", "hammer", "camera")
	want := map[string]bool{"car": true, "camera": true, "hammer": true}
	for _, it := range synth.ObjectsN(9, 4) {
		if !want[it.Label] {
			continue
		}
		if err := pruned.AddImage(it.ID, it.Label, it.Image); err != nil {
			t.Fatal(err)
		}
	}
	return pruned, exact
}

// The box screen must be invisible end to end: the reference is the head
// of the exhaustive RankAll, which no top-k machinery touches. Retrieve and
// RetrieveMany must match it on both databases, and WithRecall changes
// nothing.
func TestRecallOneEndToEndIdentical(t *testing.T) {
	pruned, exact := recallDB(t)
	pos := idsOf(exact, "car", 2)
	neg := idsNot(exact, "car", 1)
	cp, err := pruned.Train(pos, neg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ce, err := exact.Train(pos, neg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := 7
	want := exact.RankAll(ce)[:k]
	if got := exact.Retrieve(ce, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("default-recall Retrieve diverged from RankAll:\n got %+v\nwant %+v", got, want)
	}
	if got := pruned.Retrieve(cp, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("pruned Retrieve diverged:\n got %+v\nwant %+v", got, want)
	}
	// Per-call override: a negative recall retrieves the same results too
	// (bit-identity means the override is invisible in the output).
	if got := pruned.Retrieve(cp, k, WithRecall(-1)); !reflect.DeepEqual(got, want) {
		t.Fatalf("WithRecall(-1) diverged:\n got %+v\nwant %+v", got, want)
	}
	// The exact database can opt in per call.
	if got := exact.Retrieve(ce, k, WithRecall(1)); !reflect.DeepEqual(got, want) {
		t.Fatalf("WithRecall(1) on exact db diverged:\n got %+v\nwant %+v", got, want)
	}

	many, err := pruned.RetrieveMany([]*Concept{cp, cp}, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rs := range many {
		if !reflect.DeepEqual(rs, want) {
			t.Fatalf("RetrieveMany[%d] diverged", i)
		}
	}

	// Counters flowed: every retrieval above was a counted, armed scan that
	// screened bags, and the invariant holds.
	st := pruned.Stats()
	if st.Prune.Scans != 4 || st.Prune.Unarmed != 0 {
		t.Fatalf("scans %d unarmed %d, want 4 and 0", st.Prune.Scans, st.Prune.Unarmed)
	}
	if st.Prune.Screened == 0 {
		t.Fatal("pruned database screened nothing")
	}
	if st.Prune.Admitted+st.Prune.Rejected != st.Prune.Screened {
		t.Fatalf("stats invariant: screened %d != admitted %d + rejected %d",
			st.Prune.Screened, st.Prune.Admitted, st.Prune.Rejected)
	}
	if st := exact.Stats().Prune; st.Scans != 2 || st.Screened == 0 {
		t.Fatalf("default-recall database: %+v, want 2 screened scans", st)
	}
}

// A database saved and reloaded keeps pruning working: sketches are rebuilt
// from the flat block on load (no format change), so a loaded database
// still matches the exhaustive ranking of its never-saved twin bit for bit.
func TestRecallSurvivesReload(t *testing.T) {
	pruned, exact := recallDB(t)
	dir := t.TempDir()
	path := dir + "/db.milret"
	if err := pruned.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := pruned.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	pos := idsOf(exact, "hammer", 2)
	cl, err := loaded.Train(pos, nil, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ce, err := exact.Train(pos, nil, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := exact.RankAll(ce)[:6]
	if got := loaded.Retrieve(cl, 6); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded pruned Retrieve diverged:\n got %+v\nwant %+v", got, want)
	}
	if st := loaded.Stats(); st.Prune.Screened == 0 {
		t.Fatal("loaded database screened nothing — sketches missing after load?")
	}
}
