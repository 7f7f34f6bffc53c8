package milret

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"milret/internal/store"
	"milret/internal/synth"
)

// testDBSharded builds a labelled database spread over the given number of
// shards from the synthetic object corpus.
func testDBSharded(t *testing.T, shards, perCat int, cats ...string) *Database {
	t.Helper()
	db, err := NewDatabase(Options{Shards: shards})
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

// trainedConcept trains a small concept for ranking comparisons.
func trainedConcept(t *testing.T, db *Database) *Concept {
	t.Helper()
	c, err := db.Train(idsOf(db, "car", 2), idsOf(db, "lamp", 2),
		TrainOptions{Mode: IdenticalWeights, MaxIters: 10, StartBags: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// A sharded database must rank bit-identically to a single-shard database
// over the same images, and Save/LoadDatabase must round-trip it through the
// MILRETS1 manifest with every shard adopted zero-copy.
func TestShardedSaveAndReload(t *testing.T) {
	single := testDB(t, 3, "car", "lamp")
	db := testDBSharded(t, 3, 3, "car", "lamp")
	if db.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d", db.ShardCount())
	}
	concept := trainedConcept(t, db)
	if got, want := db.RankAll(concept), single.RankAll(concept); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded ranking diverged from single-shard:\ngot  %v\nwant %v", got, want)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	// The manifest plus one snapshot per shard, no logs after a full save.
	if ok, err := store.IsManifest(path); err != nil || !ok {
		t.Fatalf("save did not write a manifest: %v %v", ok, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(store.ShardPath(path, i)); err != nil {
			t.Fatalf("shard %d snapshot missing: %v", i, err)
		}
		if _, err := os.Stat(store.WALPath(store.ShardPath(path, i))); !os.IsNotExist(err) {
			t.Fatalf("full save left shard %d WAL: %v", i, err)
		}
	}

	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.ShardCount() != 3 {
		t.Fatalf("reloaded ShardCount = %d", back.ShardCount())
	}
	if back.Len() != db.Len() {
		t.Fatalf("reloaded %d of %d", back.Len(), db.Len())
	}
	if got, want := back.RankAll(concept), db.RankAll(concept); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded sharded ranking diverged:\ngot  %v\nwant %v", got, want)
	}
	if st := waitVerified(t, back); st != VerifyVerified {
		t.Fatalf("sharded background verification settled to %v", st)
	}
}

// shardWithPending returns a shard index carrying at least one of the given
// IDs, so tests can aim mutations at distinct shards.
func shardOf(db *Database, id string) int { return db.db.ShardFor(id) }

// Incremental sharded saves touch only the shards that changed: mutations
// land in their own shards' logs, fold only the oversized shard, and reload
// replays every log.
func TestShardedIncrementalSave(t *testing.T) {
	db := testDBSharded(t, 4, 3, "car", "lamp", "pants")
	dir := t.TempDir()
	path := filepath.Join(dir, "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	snapSizes := make([]int64, 4)
	for i := range snapSizes {
		st, err := os.Stat(store.ShardPath(path, i))
		if err != nil {
			t.Fatal(err)
		}
		snapSizes[i] = st.Size()
	}

	// Spread mutations across shards: delete one image, relabel another.
	ids := db.IDs()
	delID, relID := ids[0], ids[len(ids)-1]
	if err := db.DeleteImage(delID); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateImage(relID, "relabeled", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}

	delShard, relShard := shardOf(db, delID), shardOf(db, relID)
	touched := map[int]int{delShard: 0, relShard: 0}
	touched[delShard]++
	touched[relShard]++
	for i := 0; i < 4; i++ {
		walPath := store.WALPath(store.ShardPath(path, i))
		wantOps, isTouched := touched[i]
		if !isTouched {
			if _, err := os.Stat(walPath); !os.IsNotExist(err) {
				t.Fatalf("untouched shard %d grew a WAL: %v", i, err)
			}
			continue
		}
		_, _, wrecs, err := store.ReadWAL(walPath)
		if err != nil {
			t.Fatalf("shard %d WAL: %v", i, err)
		}
		if len(wrecs) != wantOps {
			t.Fatalf("shard %d WAL holds %d records, want %d", i, len(wrecs), wantOps)
		}
		// Incremental: the snapshot itself was not rewritten.
		st, err := os.Stat(store.ShardPath(path, i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != snapSizes[i] {
			t.Fatalf("incremental save rewrote shard %d snapshot", i)
		}
	}
	if st := db.Stats(); st.PendingMutations != 0 || st.WALMutations != 2 {
		t.Fatalf("journal after sharded save: pending=%d wal=%d", st.PendingMutations, st.WALMutations)
	}

	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if _, ok := back.Label(delID); ok {
		t.Fatal("deleted image came back")
	}
	if lb, _ := back.Label(relID); lb != "relabeled" {
		t.Fatalf("label update lost: %q", lb)
	}
	if st := back.Stats(); st.WALMutations != 2 {
		t.Fatalf("reloaded journal state: %+v", st)
	}
}

// Kill-and-reopen across multiple shard WALs: acknowledged mutations in
// every shard survive, and a torn tail on one shard's log is truncated
// without touching the others.
func TestShardedWALKillAndReopen(t *testing.T) {
	db := testDBSharded(t, 3, 3, "car", "lamp")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	// One mutation per category image so several shards see traffic.
	ids := db.IDs()
	if len(ids) < 4 {
		t.Fatal("corpus too small")
	}
	if err := db.DeleteImage(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateImage(ids[1], "lantern", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateImage(ids[2], "sconce", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// A post-flush mutation is unacknowledged; the "crash" may lose it.
	if err := db.DeleteImage(ids[3]); err != nil {
		t.Fatal(err)
	}

	// Tear the tail of one flushed shard's log, as a crash mid-append would.
	tornShard := shardOf(db, ids[0])
	walPath := store.WALPath(store.ShardPath(path, tornShard))
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
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
	if _, ok := back.Label(ids[0]); ok {
		t.Fatal("acknowledged delete lost")
	}
	if lb, _ := back.Label(ids[1]); lb != "lantern" {
		t.Fatalf("acknowledged update lost: %q", lb)
	}
	if lb, _ := back.Label(ids[2]); lb != "sconce" {
		t.Fatalf("acknowledged update lost: %q", lb)
	}
	if _, ok := back.Label(ids[3]); !ok {
		t.Fatal("unacknowledged delete should not have survived")
	}
	// The reopened database keeps mutating and persisting per shard.
	if err := back.DeleteImage(ids[3]); err != nil {
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
	if _, ok := final.Label(ids[3]); ok {
		t.Fatal("post-recovery delete lost")
	}
}

// Folding is per-shard: hammering one image's label folds only its shard's
// log; the other shards keep their snapshots and (empty) journals.
func TestShardedFoldTouchesOneShard(t *testing.T) {
	db := testDBSharded(t, 3, 2, "car", "lamp")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	victim := db.IDs()[0]
	vShard := shardOf(db, victim)
	snapSizes := make([]int64, 3)
	for i := range snapSizes {
		st, err := os.Stat(store.ShardPath(path, i))
		if err != nil {
			t.Fatal(err)
		}
		snapSizes[i] = st.Size()
	}
	for i := 0; i <= store.FoldMinOps; i++ {
		if err := db.UpdateImage(victim, fmt.Sprintf("v%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.WALPath(store.ShardPath(path, vShard))); !os.IsNotExist(err) {
		t.Fatalf("oversized shard WAL not folded: %v", err)
	}
	for i := 0; i < 3; i++ {
		st, err := os.Stat(store.ShardPath(path, i))
		if err != nil {
			t.Fatal(err)
		}
		if i != vShard && st.Size() != snapSizes[i] {
			t.Fatalf("fold rewrote unrelated shard %d", i)
		}
	}
	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if lb, _ := back.Label(victim); lb != fmt.Sprintf("v%d", store.FoldMinOps) {
		t.Fatalf("folded label: %q", lb)
	}
}

// A renamed manifest must keep folding and flushing into the shard files
// it actually references: the resolved paths are retained at load, never
// recomputed from the (renamed) manifest path, so no acknowledged mutation
// can land in an orphan file.
func TestRenamedManifestFoldsIntoReferencedShards(t *testing.T) {
	db := testDBSharded(t, 2, 2, "car", "lamp")
	dir := t.TempDir()
	path := filepath.Join(dir, "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	// Rename only the manifest; shard files keep their original names.
	moved := filepath.Join(dir, "renamed.milret")
	if err := os.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatabase(moved, Options{})
	if err != nil {
		t.Fatal(err)
	}
	victim := loaded.IDs()[0]
	// Enough mutations to cross the per-shard fold threshold.
	for i := 0; i <= store.FoldMinOps; i++ {
		if err := loaded.UpdateImage(victim, fmt.Sprintf("v%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := loaded.Save(moved); err != nil {
		t.Fatal(err)
	}
	loaded.Close()
	// The fold must not have written orphan canonical files for the new name.
	for i := 0; i < 2; i++ {
		if _, err := os.Stat(store.ShardPath(moved, i)); !os.IsNotExist(err) {
			t.Fatalf("fold wrote orphan shard file %q: %v", store.ShardPath(moved, i), err)
		}
	}
	back, err := LoadDatabase(moved, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if lb, _ := back.Label(victim); lb != fmt.Sprintf("v%d", store.FoldMinOps) {
		t.Fatalf("acknowledged mutations lost through renamed manifest: label %q", lb)
	}
}

// A Compact that fails part-way must not strand acknowledged mutations.
// Every shard it did fold is completely folded — snapshot, writer, log,
// counts, generation — before the next is touched, so a later Flush on such
// a shard starts a log bound to the new snapshot instead of appending to a
// stale one that the next open would (rightly) ignore.
func TestPartialCompactKeepsAcknowledgedMutations(t *testing.T) {
	db := testDBSharded(t, 3, 3, "car", "lamp")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, id := range db.IDs() {
		if shardOf(db, id) == 0 {
			victim = id
			break
		}
	}
	if victim == "" {
		t.Fatal("no image hashed to shard 0")
	}
	if err := db.UpdateImage(victim, "first", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Make shard 2 unwritable: a non-empty directory cannot be renamed over.
	shard2 := store.ShardPath(path, 2)
	aside := shard2 + ".aside"
	if err := os.Rename(shard2, aside); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(shard2, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err == nil {
		t.Fatal("Compact succeeded over an unwritable shard")
	}
	if err := os.RemoveAll(shard2); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, shard2); err != nil {
		t.Fatal(err)
	}

	if err := db.UpdateImage(victim, "acked", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Kill and reopen: no Close, no Save.
	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lb, _ := back.Label(victim); lb != "acked" {
		t.Fatalf("acknowledged label lost after partial Compact: got %q", lb)
	}
	back.Close()

	// With the shard writable again, Compact goes through and leaves no log.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(store.WALPath(store.ShardPath(path, i))); !os.IsNotExist(err) {
			t.Fatalf("Compact left shard %d's log behind: %v", i, err)
		}
	}
	final, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if lb, _ := final.Label(victim); lb != "acked" {
		t.Fatalf("label after the second Compact: %q", lb)
	}
}

// Concurrent mutate-and-flush from many goroutines (the server's write
// path): group commit must acknowledge every mutation durably — a reload
// sees all of them — with the race detector silent.
func TestConcurrentFlushGroupCommit(t *testing.T) {
	db := testDB(t, 2, "car", "lamp")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	ids := db.IDs()
	const writers = 8
	const perWriter = 6
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := ids[w%len(ids)]
			for i := 0; i < perWriter; i++ {
				if err := db.UpdateImage(id, fmt.Sprintf("w%d-%d", w, i), nil); err != nil {
					errs <- err
					return
				}
				if err := db.Flush(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	back, err := LoadDatabase(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != db.Len() {
		t.Fatalf("reloaded %d of %d", back.Len(), db.Len())
	}
	// Every image's final label must be one some writer acknowledged last
	// for that image — in particular, never the pre-mutation label for the
	// images that were updated.
	for w := 0; w < writers && w < len(ids); w++ {
		lb, ok := back.Label(ids[w])
		if !ok {
			t.Fatalf("image %q lost", ids[w])
		}
		if len(lb) < 2 || lb[0] != 'w' {
			t.Fatalf("image %q label %q predates the acknowledged updates", ids[w], lb)
		}
	}
}

// Per-shard stats must sum to the totals after mutations land in different
// shards' journals.
func TestShardedStatsInvariant(t *testing.T) {
	db := testDBSharded(t, 4, 3, "car", "lamp", "pants")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	ids := db.IDs()
	for i, id := range ids {
		if i%3 == 0 {
			if err := db.UpdateImage(id, "touched", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.DeleteImage(ids[1]); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("got %d shard rows", len(st.Shards))
	}
	var sum ShardStats
	for _, row := range st.Shards {
		sum.Images += row.Images
		sum.Instances += row.Instances
		sum.IndexBytes += row.IndexBytes
		sum.DeadImages += row.DeadImages
		sum.DeadInstances += row.DeadInstances
		sum.PendingMutations += row.PendingMutations
		sum.WALMutations += row.WALMutations
	}
	if sum.Images != st.Images || sum.Instances != st.Instances ||
		sum.IndexBytes != st.IndexBytes || sum.DeadImages != st.DeadImages ||
		sum.DeadInstances != st.DeadInstances || sum.PendingMutations != st.PendingMutations ||
		sum.WALMutations != st.WALMutations {
		t.Fatalf("per-shard stats do not sum to totals:\nsum    %+v\ntotals %+v", sum, st)
	}
	if st.Images != db.Len() {
		t.Fatalf("stats images %d, Len %d", st.Images, db.Len())
	}
	if st.PendingMutations == 0 {
		t.Fatal("expected pending mutations in the journal")
	}
}

// Label-only updates journal a metadata-only record: the WAL stays tiny no
// matter how large the image's bag is.
func TestLabelOnlyUpdateJournalsLabelRecord(t *testing.T) {
	db := testDB(t, 2, "car")
	path := filepath.Join(t.TempDir(), "db.milret")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	id := db.IDs()[0]
	if err := db.UpdateImage(id, "renamed", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	_, _, wrecs, err := store.ReadWAL(store.WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(wrecs) != 1 || wrecs[0].Op != store.WALLabel {
		t.Fatalf("label-only update journaled %+v", wrecs)
	}
	st, err := os.Stat(store.WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	// Header + one metadata record: far below one serialized bag (a 100-dim
	// 40-instance bag alone is ~32KB).
	if st.Size() > 256 {
		t.Fatalf("label-only WAL is %d bytes", st.Size())
	}
	// And the tombstone-free in-memory path: no dead rows accrued.
	if s := db.Stats(); s.DeadImages != 0 || s.DeadInstances != 0 {
		t.Fatalf("label-only update left tombstones: %+v", s)
	}
}
