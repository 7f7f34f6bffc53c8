package milret

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"milret/internal/store"
	"milret/internal/synth"
)

func TestDeleteImageSemantics(t *testing.T) {
	db := testDB(t, 3, "car", "lamp")
	n := db.Len()
	if err := db.DeleteImage("ghost"); err == nil {
		t.Fatal("delete of unknown image accepted")
	}
	if err := db.DeleteImage("object-car-00"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteImage("object-car-00"); err == nil {
		t.Fatal("double delete accepted")
	}
	if db.Len() != n-1 {
		t.Fatalf("Len = %d, want %d", db.Len(), n-1)
	}
	if _, ok := db.Label("object-car-00"); ok {
		t.Fatal("deleted image still resolvable")
	}
	st := db.Stats()
	if st.DeadImages != 1 || st.DeadInstances == 0 {
		t.Fatalf("stats after delete: %+v", st)
	}

	concept, err := db.Train(idsOf(db, "car", 2), idsOf(db, "lamp", 2),
		TrainOptions{Mode: IdenticalWeights, MaxIters: 10, StartBags: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range db.RankAll(concept) {
		if r.ID == "object-car-00" {
			t.Fatal("deleted image ranked")
		}
	}
}

func TestUpdateImageSemantics(t *testing.T) {
	db := testDB(t, 2, "car", "lamp")
	if err := db.UpdateImage("ghost", "x", nil); err == nil {
		t.Fatal("update of unknown image accepted")
	}
	if err := db.UpdateImage("", "x", nil); err == nil {
		t.Fatal("empty ID accepted")
	}
	// Label-only update keeps the bag.
	before, _ := db.db.ByID("object-car-00")
	if err := db.UpdateImage("object-car-00", "automobile", nil); err != nil {
		t.Fatal(err)
	}
	if lb, _ := db.Label("object-car-00"); lb != "automobile" {
		t.Fatalf("label after update: %q", lb)
	}
	after, _ := db.db.ByID("object-car-00")
	if !reflect.DeepEqual(before.Bag.Instances, after.Bag.Instances) {
		t.Fatal("label-only update changed the bag")
	}
	// Full update swaps in the new image's features.
	var lampImg = func() *synth.Item {
		for _, it := range synth.ObjectsN(3, 1) {
			if it.Label == "lamp" {
				return &it
			}
		}
		return nil
	}()
	if err := db.UpdateImage("object-car-00", "lamp2", lampImg.Image); err != nil {
		t.Fatal(err)
	}
	updated, _ := db.db.ByID("object-car-00")
	if reflect.DeepEqual(after.Bag.Instances, updated.Bag.Instances) {
		t.Fatal("full update kept the old bag")
	}
	if db.Len() != 4 {
		t.Fatalf("Len changed by update: %d", db.Len())
	}
}

// The acceptance property: deleting images and then retrieving is
// bit-identical to retrieving from a database that never contained them.
func TestDeleteMatchesRebuild(t *testing.T) {
	full := testDB(t, 3, "car", "lamp", "pants")
	drop := map[string]bool{"object-pants-00": true, "object-car-02": true, "object-lamp-01": true}
	for id := range drop {
		if err := full.DeleteImage(id); err != nil {
			t.Fatal(err)
		}
	}

	rebuilt, err := NewDatabase(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range synth.ObjectsN(9, 3) {
		switch it.Label {
		case "car", "lamp", "pants":
			if drop[it.ID] {
				continue
			}
			if err := rebuilt.AddImage(it.ID, it.Label, it.Image); err != nil {
				t.Fatal(err)
			}
		}
	}

	concept, err := full.Train(idsOf(full, "car", 2), idsOf(full, "lamp", 2),
		TrainOptions{Mode: IdenticalWeights, MaxIters: 15, StartBags: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, full.Len(), full.Len() + 5} {
		got := full.Retrieve(concept, k)
		want := rebuilt.Retrieve(concept, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopK(%d) diverged from rebuild:\ngot  %v\nwant %v", k, got, want)
		}
	}
	if got, want := full.RankAll(concept), rebuilt.RankAll(concept); !reflect.DeepEqual(got, want) {
		t.Fatalf("RankAll diverged from rebuild:\ngot  %v\nwant %v", got, want)
	}
}

// readFlatHeader fingerprints a store file so tests can assert whether a
// Save rewrote the snapshot or only appended to its log.
func fileFingerprint(t *testing.T, path string) (int64, time.Time) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size(), st.ModTime()
}

func TestIncrementalSaveAndReload(t *testing.T) {
	db := testDB(t, 3, "car", "lamp")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	baseSize, baseMod := fileFingerprint(t, path)
	if _, err := os.Stat(store.WALPath(path)); !os.IsNotExist(err) {
		t.Fatalf("full save left a WAL: %v", err)
	}

	// Mutate: one add, one delete, one label update.
	for _, it := range synth.ObjectsN(41, 1) {
		if it.Label == "pants" {
			if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.DeleteImage("object-lamp-01"); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateImage("object-car-01", "coupe", nil); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.PendingMutations != 3 {
		t.Fatalf("pending = %d, want 3", st.PendingMutations)
	}

	// Second save is incremental: the snapshot is untouched, the log holds
	// the three mutations.
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if sz, mod := fileFingerprint(t, path); sz != baseSize || !mod.Equal(baseMod) {
		t.Fatal("incremental save rewrote the snapshot")
	}
	if st := db.Stats(); st.PendingMutations != 0 || st.WALMutations != 3 {
		t.Fatalf("after flush: %+v", st)
	}
	if _, _, wrecs, err := store.ReadWAL(store.WALPath(path)); err != nil || len(wrecs) != 3 {
		t.Fatalf("WAL holds %d records (%v), want 3", len(wrecs), err)
	}

	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != db.Len() {
		t.Fatalf("reloaded %d of %d", back.Len(), db.Len())
	}
	if _, ok := back.Label("object-lamp-01"); ok {
		t.Fatal("deleted image came back")
	}
	if lb, _ := back.Label("object-car-01"); lb != "coupe" {
		t.Fatalf("updated label lost: %q", lb)
	}
	if st := back.Stats(); st.WALMutations != 3 {
		t.Fatalf("reloaded journal state: %+v", st)
	}
	concept, err := db.Train(idsOf(db, "car", 2), idsOf(db, "lamp", 1),
		TrainOptions{Mode: IdenticalWeights, MaxIters: 15, StartBags: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.RankAll(concept), db.RankAll(concept); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded ranking diverged:\ngot  %v\nwant %v", got, want)
	}
}

// Kill-and-reopen: once Flush has returned, a crash (we just abandon the
// session without closing or saving) loses nothing — and a torn partial
// append after the acknowledged records is discarded cleanly.
func TestWALKillAndReopen(t *testing.T) {
	db := testDB(t, 2, "car", "lamp")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteImage("object-car-00"); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateImage("object-lamp-00", "lantern", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Mutations after the flush are NOT acknowledged; the crash may lose
	// them.
	if err := db.DeleteImage("object-lamp-01"); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn tail a crash mid-append would leave.
	wal := store.WALPath(path)
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{42, 0, 0, 0, 3, 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if _, ok := back.Label("object-car-00"); ok {
		t.Fatal("acknowledged delete lost")
	}
	if lb, _ := back.Label("object-lamp-00"); lb != "lantern" {
		t.Fatalf("acknowledged update lost: %q", lb)
	}
	if _, ok := back.Label("object-lamp-01"); !ok {
		t.Fatal("unacknowledged delete should not have survived")
	}
	// The reopened database keeps mutating and persisting through the
	// recovered (truncated) log.
	if err := back.DeleteImage("object-lamp-01"); err != nil {
		t.Fatal(err)
	}
	if err := back.Flush(); err != nil {
		t.Fatal(err)
	}
	final, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if _, ok := final.Label("object-lamp-01"); ok {
		t.Fatal("post-recovery delete lost")
	}
}

// Once the log outgrows half the live database, Save folds it into a fresh
// snapshot and removes it.
func TestSaveFoldsOversizedWAL(t *testing.T) {
	db := testDB(t, 2, "car")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	// store.FoldMinOps label-only updates on one image blow past the threshold.
	for i := 0; i <= store.FoldMinOps; i++ {
		if err := db.UpdateImage("object-car-00", fmt.Sprintf("car-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.WALPath(path)); !os.IsNotExist(err) {
		t.Fatalf("oversized WAL not folded: %v", err)
	}
	if st := db.Stats(); st.WALMutations != 0 || st.PendingMutations != 0 {
		t.Fatalf("journal after fold: %+v", st)
	}
	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if lb, _ := back.Label("object-car-00"); lb != fmt.Sprintf("car-%d", store.FoldMinOps) {
		t.Fatalf("folded label: %q", lb)
	}
}

func TestCompactFoldsAndUnbinds(t *testing.T) {
	db := testDB(t, 2, "car", "lamp")
	// Compact on an unbound database is a no-op beyond the index rebuild.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteImage("object-car-00"); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := db.Stats(); st.DeadImages != 0 || st.WALMutations != 0 {
		t.Fatalf("after compact: %+v", st)
	}
	if _, err := os.Stat(store.WALPath(path)); !os.IsNotExist(err) {
		t.Fatalf("compact left the WAL behind: %v", err)
	}
	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if _, ok := back.Label("object-car-00"); ok {
		t.Fatal("compacted snapshot resurrects deleted image")
	}
}

// A fold that crashes between renaming the new snapshot and removing the
// old log leaves a stale WAL whose mutations the snapshot already
// contains. The fingerprint check must detect it: the load succeeds,
// ignores the stale log, and the next save folds it away — the database is
// never bricked and never double-applies.
func TestStaleWALAfterInterruptedFold(t *testing.T) {
	db := testDB(t, 2, "car", "lamp")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteImage("object-car-00"); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateImage("object-lamp-00", "lantern", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: fold by hand — write the folded snapshot (what
	// rewriteLocked's WriteFlatFile leaves after its rename) but "die"
	// before RemoveWAL, keeping the now-stale log.
	wal, err := os.ReadFile(store.WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil { // folds + removes the WAL
		t.Fatal(err)
	}
	if err := os.WriteFile(store.WALPath(path), wal, 0o644); err != nil { // resurrect the stale log
		t.Fatal(err)
	}

	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatalf("stale WAL bricked the database: %v", err)
	}
	if _, ok := back.Label("object-car-00"); ok {
		t.Fatal("folded delete lost")
	}
	if lb, _ := back.Label("object-lamp-00"); lb != "lantern" {
		t.Fatalf("folded update lost: %q", lb)
	}
	if st := back.Stats(); st.WALMutations != 0 {
		t.Fatalf("stale log was replayed: %+v", st)
	}
	// Mutating and flushing folds the stale log away rather than appending
	// to it.
	if err := back.DeleteImage("object-lamp-01"); err != nil {
		t.Fatal(err)
	}
	if err := back.Flush(); err != nil {
		t.Fatal(err)
	}
	back.Close()
	final, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if _, ok := final.Label("object-lamp-01"); ok {
		t.Fatal("post-recovery delete lost")
	}
}

// A WAL that references images its snapshot does not contain means the pair
// is inconsistent; loading must fail loudly rather than guess.
func TestLoadRejectsMismatchedWAL(t *testing.T) {
	db := testDB(t, 2, "car")
	dir := t.TempDir()
	path := filepath.Join(dir, "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	fp, err := store.SnapshotFingerprint(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.CreateWAL(store.WALPath(path), db.opts.Dim(), fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(store.WALRecord{Op: store.WALDelete, Rec: store.Record{ID: "never-existed"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDatabase(path, Options{}); err == nil {
		t.Fatal("inconsistent snapshot/WAL pair accepted")
	}
}

func waitVerified(t *testing.T, db *Database) VerifyStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := db.Verification()
		if st != VerifyPending || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBackgroundVerification(t *testing.T) {
	db := testDB(t, 2, "car")
	if st, err := db.Verification(); st != VerifyVerified || err != nil {
		t.Fatalf("in-memory database: %v, %v", st, err)
	}
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}

	// Synchronous verify: settled before LoadDatabase returns.
	sync, err := LoadDatabase(path, Options{VerifyOnLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := sync.Verification(); st != VerifyVerified {
		t.Fatalf("VerifyOnLoad status = %v", st)
	}
	sync.Close()

	// Fast load: pending at first (or already settled), verified soon after.
	fast, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitVerified(t, fast); st != VerifyVerified {
		t.Fatalf("background verification settled to %v", st)
	}
	fast.Close()

	// Flip a byte inside the data block: the fast load must surface
	// VerifyCorrupt in the background, and VerifyOnLoad must fail outright.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-12] ^= 0xA5 // inside the last instance row, before the CRC
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDatabase(path, Options{VerifyOnLoad: true}); err == nil {
		t.Fatal("VerifyOnLoad accepted corrupt data")
	}
	bad, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if st := waitVerified(t, bad); st != VerifyCorrupt {
		t.Fatalf("corrupt block settled to %v", st)
	}
	if _, verr := bad.Verification(); verr == nil {
		t.Fatal("corrupt status carries no error")
	}
}
