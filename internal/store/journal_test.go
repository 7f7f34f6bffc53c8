package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// add applies and journals one append to a shard of the simplest database
// a Journal can persist (records: slices of records), the way milret's
// mutators do.
func (m records) add(t *testing.T, j *Journal, shard int, rec Record) {
	t.Helper()
	err := j.Apply(shard, WALRecord{Op: WALAdd, Rec: rec}, func() error {
		m[shard] = append(m[shard], rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// newBoundJournal saves a live database of the given shard count, a few
// records in each shard, at a fresh path and returns the bound journal.
func newBoundJournal(t *testing.T, r *rand.Rand, shards int) (*Journal, records, string) {
	t.Helper()
	live := make(records, shards)
	for si := range live {
		for k := 0; k < 3; k++ {
			live[si] = append(live[si], randRecord(r, fmt.Sprintf("s%d-%d", si, k), "seed", 4, 2))
		}
	}
	path := filepath.Join(t.TempDir(), "db.milret")
	j := NewJournal(4, shards)
	if err := j.Save(path, live); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, live, path
}

// reopenIDs opens the store the way a crashed process's successor would
// and returns every ID it holds after replay, per shard.
func reopenIDs(t *testing.T, path string) [][]string {
	t.Helper()
	j, shards, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	out := make([][]string, len(shards))
	for si, sh := range shards {
		for _, rec := range sh.Flat.Records {
			out[si] = append(out[si], rec.ID)
		}
		for _, wr := range sh.Log {
			out[si] = append(out[si], wr.Rec.ID)
		}
	}
	return out
}

func wantIDs(t *testing.T, got []string, live []Record) {
	t.Helper()
	if len(got) != len(live) {
		t.Fatalf("reopened %d records %v, want %d", len(got), got, len(live))
	}
	for i, rec := range live {
		if got[i] != rec.ID {
			t.Fatalf("reopened record %d is %q, want %q", i, got[i], rec.ID)
		}
	}
}

// A record-stream file is refused as the unknown magic it is; a flat file at
// the same kind of path opens, bit for bit.
func TestOpenRefusesRetiredFormat(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	recs := []Record{randRecord(r, "a", "x", 4, 2), randRecord(r, "b", "y", 4, 3)}
	recs[0].Bag.Names = []string{"r1", "r2"}

	retired := filepath.Join(t.TempDir(), "retired.milret")
	if err := os.WriteFile(retired, []byte(retiredStreamMagic+"\x01\x00\x00\x00\x04\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(retired)
	if err == nil || !strings.Contains(err.Error(), `bad magic "`+retiredStreamMagic+`"`) {
		t.Fatalf("record-stream store: got %v, want a bad-magic refusal", err)
	}

	j, shards, err := Open(writeFlatTemp(t, 4, recs))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recordsBitEqual(t, shards[0].Flat.Records, recs)
}

func TestOpenBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("NOTASTOREATALL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic: got %v", err)
	}
}

// Open tells a manifest from a flat file by magic: one shard for the file,
// the manifest's shards in order otherwise, each adopted zero-copy — and
// shard headers that disagree on the dimensionality are refused.
func TestOpenManifestOrFlat(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	groups := [][]Record{
		{randRecord(r, "a", "x", 4, 2)},
		nil,
		{randRecord(r, "b", "y", 4, 1), randRecord(r, "c", "y", 4, 3)},
	}
	dir := t.TempDir()

	flatPath := filepath.Join(dir, "one.milret")
	if err := Create(flatPath, 4, groups[:1]); err != nil {
		t.Fatal(err)
	}
	j, shards, err := Open(flatPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 || shards[0].Flat == nil {
		t.Fatalf("flat store opened as %d shards", len(shards))
	}
	recordsBitEqual(t, shards[0].Flat.Records, groups[0])
	j.Close()

	manifestPath := filepath.Join(dir, "three.milret")
	if err := Create(manifestPath, 4, groups); err != nil {
		t.Fatal(err)
	}
	if ok, err := IsManifest(manifestPath); err != nil || !ok {
		t.Fatalf("sharded create wrote no manifest: %v %v", ok, err)
	}
	j, shards, err = Open(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 || j.Dim() != 4 {
		t.Fatalf("manifest opened as %d shards, dim %d", len(shards), j.Dim())
	}
	for si, sh := range shards {
		recordsBitEqual(t, sh.Flat.Records, groups[si])
	}
	j.Close()

	// Shard 1 is empty, so only its header can give the mismatch away.
	if err := WriteFlatFile(ShardPath(manifestPath, 1), 9, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(manifestPath); err == nil || !strings.Contains(err.Error(), "dim") {
		t.Fatalf("shard headers disagreeing on dim: got %v", err)
	}
}

// Creating a store over an older one removes the logs the new snapshots
// supersede, and a log that cannot be removed fails the create instead of
// lying in wait beside a snapshot it does not belong to.
func TestCreateRemovesSupersededLogs(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	j, live, path := newBoundJournal(t, r, 2)
	live.add(t, j, 1, randRecord(r, "logged", "", 4, 1))
	if err := j.Save("", live); err != nil {
		t.Fatal(err)
	}
	logPath := WALPath(ShardPath(path, 1))
	if _, err := os.Stat(logPath); err != nil {
		t.Fatalf("commit left no log: %v", err)
	}
	if err := Create(path, 4, live); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Fatalf("create left the superseded log: %v", err)
	}

	// A non-empty directory where the log would be cannot be unlinked.
	if err := os.MkdirAll(filepath.Join(logPath, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Create(path, 4, live); err == nil {
		t.Fatal("create swallowed a failed log removal")
	}
}

// The lost-fsync arm. A commit whose fsync fails must report it and
// distrust the shard's log; the next commit must fold the shard into a
// fresh snapshot instead of appending to a file of unknown content; and
// every record must be there on reopen.
func TestJournalLostFsyncDistrustsShard(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	j, live, path := newBoundJournal(t, r, 2)
	live.add(t, j, 0, randRecord(r, "first", "", 4, 1))
	if err := j.Save("", live); err != nil {
		t.Fatal(err)
	}
	if d := j.Depth(); d[0] != (Depth{Durable: 1}) || d[1] != (Depth{}) {
		t.Fatalf("depth after a clean commit: %+v", d)
	}

	// Pull the file out from under the open writer: the next append still
	// lands in its buffer, the fsync behind it cannot.
	j.mu.Lock()
	w := j.shards[0].w
	j.mu.Unlock()
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()

	live.add(t, j, 0, randRecord(r, "second", "", 4, 1))
	if err := j.Save("", live); err == nil {
		t.Fatal("commit acknowledged records whose fsync failed")
	}
	if d := j.Depth(); d[0].Durable != -1 || d[0].Pending != 0 {
		t.Fatalf("shard not distrusted after a lost fsync: %+v", d[0])
	}

	live.add(t, j, 0, randRecord(r, "third", "", 4, 1))
	if err := j.Save("", live); err != nil {
		t.Fatalf("commit after distrust: %v", err)
	}
	if d := j.Depth(); d[0] != (Depth{}) {
		t.Fatalf("distrusted shard was not folded: %+v", d[0])
	}
	if _, err := os.Stat(WALPath(ShardPath(path, 0))); !os.IsNotExist(err) {
		t.Fatalf("fold left the distrusted log behind: %v", err)
	}
	got := reopenIDs(t, path)
	wantIDs(t, got[0], live[0])
	wantIDs(t, got[1], live[1])
}

// The generation rule. A committer that staged its records and then lost
// its fsync because a fold of the same shard retired the writer in between
// has lost nothing: the fold snapshotted the full in-memory state, its
// records included. The commit must return nil and the shard must stay
// trusted.
func TestJournalFoldMakesLostFsyncMoot(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	j, live, path := newBoundJournal(t, r, 1)
	live.add(t, j, 0, randRecord(r, "first", "", 4, 1))
	if err := j.Save("", live); err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	w := j.shards[0].w
	j.mu.Unlock()

	// Park the committer between staging and its fsync: it queues behind a
	// sync that looks in flight.
	w.smu.Lock()
	w.syncing = true
	w.smu.Unlock()
	live.add(t, j, 0, randRecord(r, "second", "", 4, 1))
	done := make(chan error, 1)
	go func() { done <- j.Save("", live) }()
	for deadline := time.Now().Add(10 * time.Second); j.Depth()[0].Durable != 2; {
		if time.Now().After(deadline) {
			t.Fatal("committer never staged")
		}
		time.Sleep(time.Millisecond)
	}

	// Fold the shard under it, then let it try its fsync on the writer the
	// fold just closed.
	if err := j.Compact(live); err != nil {
		t.Fatal(err)
	}
	w.smu.Lock()
	w.syncing = false
	w.cond.Broadcast()
	w.smu.Unlock()

	if err := <-done; err != nil {
		t.Fatalf("commit covered by a fold reported a lost fsync: %v", err)
	}
	if err := w.SyncTo(w.AppendSeq()); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("the committer's fsync should have failed: %v", err)
	}
	if d := j.Depth(); d[0] != (Depth{}) {
		t.Fatalf("shard after the fold: %+v", d[0])
	}
	wantIDs(t, reopenIDs(t, path)[0], live[0])
}
