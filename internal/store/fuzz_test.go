package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedFiles builds valid store files plus characteristic mutations, so
// the fuzzer starts from structurally interesting inputs. It also returns a
// log bound to the first seed (a flat file of two records), holding one
// mutation of each kind the snapshot accepts.
func fuzzSeedFiles(f *testing.F) (seeds [][]byte, boundLog []byte) {
	f.Helper()
	r := rand.New(rand.NewSource(99))
	recs := []Record{randRecord(r, "img-a", "sunset", 4, 3), randRecord(r, "img-b", "", 4, 1)}
	recs[0].Bag.Names = []string{"c-quad-tl", "c-quad-tr", "c-quad-bl"}
	dir := f.TempDir()
	read := func(path string) []byte {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}

	flatPath := filepath.Join(dir, "flat")
	if err := WriteFlatFile(flatPath, 4, recs); err != nil {
		f.Fatal(err)
	}
	flat := read(flatPath)
	fp, err := SnapshotFingerprint(flatPath)
	if err != nil {
		f.Fatal(err)
	}
	w, err := CreateWAL(WALPath(flatPath), 4, fp)
	if err != nil {
		f.Fatal(err)
	}
	for _, op := range []WALRecord{
		{Op: WALAdd, Rec: randRecord(r, "img-c", "dusk", 4, 2)},
		{Op: WALLabel, Rec: Record{ID: "img-a", Label: "dawn"}},
		{Op: WALDelete, Rec: Record{ID: "img-b"}},
	} {
		if err := w.Append(op); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}

	// The record-stream generation no build reads any more: magic, version,
	// dim, then length-prefixed payloads. To today's readers it is one more
	// unknown magic.
	stream := []byte(retiredStreamMagic + "\x01\x00\x00\x00\x04\x00\x00\x00")
	payload, err := encodeRecordPayload(recs[1], 4)
	if err != nil {
		f.Fatal(err)
	}
	stream = append(stream, byte(len(payload)), 0, 0, 0)
	stream = append(stream, payload...)

	emptyPath := filepath.Join(dir, "empty")
	if err := WriteFlatFile(emptyPath, 2, nil); err != nil {
		f.Fatal(err)
	}

	corrupt := append([]byte{}, flat...)
	corrupt[len(corrupt)/2] ^= 0xA5
	huge := append([]byte{}, flat...)
	for i := len(FlatMagic); i < len(FlatMagic)+20 && i < len(huge); i++ {
		huge[i] = 0xFF // implausible header counts
	}
	return [][]byte{
		flat,
		stream,
		read(emptyPath),
		flat[:len(flat)/2],     // truncated flat
		stream[:len(stream)/3], // truncated stream
		{},
		[]byte(FlatMagic),
		[]byte(retiredStreamMagic),
		[]byte("NOTASTORE"),
		corrupt,
		huge,
	}, read(WALPath(flatPath))
}

// retiredStreamMagic opened the store's first generation, the per-record
// stream; Open must refuse it as the unknown magic it now is.
const retiredStreamMagic = "MILRETF1"

// checkFuzzRecord asserts what every successfully loaded record must
// satisfy, whichever file it came out of.
func checkFuzzRecord(t *testing.T, rec Record, dim int) {
	t.Helper()
	if rec.Bag == nil {
		t.Fatalf("loaded record %q with nil bag", rec.ID)
	}
	if len(rec.Bag.Instances) == 0 {
		t.Fatalf("loaded record %q with no instances", rec.ID)
	}
	for _, inst := range rec.Bag.Instances {
		if len(inst) != dim {
			t.Fatalf("loaded record %q with a %d-dim instance in a dim-%d store", rec.ID, len(inst), dim)
		}
	}
	if rec.Bag.Names != nil && len(rec.Bag.Names) != len(rec.Bag.Instances) {
		t.Fatalf("loaded record %q with mismatched names", rec.ID)
	}
}

// FuzzReadAnyFile fuzzes Open, the store's one way in: arbitrary bytes at
// the store path — flat, manifest, retired and unknown magics, truncations,
// bit flips, hostile headers — with arbitrary bytes in the log beside it
// must either open consistently or return an error. Panics and runaway
// allocations are failures; the corruption backstops of every reader Open
// drives are what this exercises. (The name is that of the function Open
// replaced. It stays because the target's seeds and corpus entries are
// tier-1 tests by name.)
func FuzzReadAnyFile(f *testing.F) {
	seeds, boundLog := fuzzSeedFiles(f)
	flipped := append([]byte{}, boundLog...)
	flipped[walHeaderLen+9] ^= 0xA5
	logs := [][]byte{
		boundLog,
		boundLog[:len(boundLog)-3], // torn tail
		{},                         // no log at all
		flipped,                    // mid-log damage
		[]byte(WALMagic),
	}
	for i, seed := range seeds {
		f.Add(seed, logs[i%len(logs)])
	}
	f.Add(seeds[0], boundLog[:walHeaderLen])
	// A manifest is outside input too. This one names the fuzzed file itself
	// and a file that cannot exist; neither may get past Open.
	manifestPath := filepath.Join(f.TempDir(), "manifest")
	if err := WriteManifest(manifestPath, []string{"fuzz-store", "fuzz-store.shard1"}); err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(manifestPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest, boundLog)

	f.Fuzz(func(t *testing.T, data, wal []byte) {
		path := filepath.Join(t.TempDir(), "fuzz-store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		if len(wal) > 0 {
			if err := os.WriteFile(WALPath(path), wal, 0o644); err != nil {
				t.Skip()
			}
		}
		j, shards, err := Open(path)
		if err != nil {
			return
		}
		// Successful opens must be internally consistent.
		for _, sh := range shards {
			if sh.Flat.Dim != j.Dim() {
				t.Fatalf("shard dim %d in a dim-%d store", sh.Flat.Dim, j.Dim())
			}
			for _, rec := range sh.Flat.Records {
				checkFuzzRecord(t, rec, j.Dim())
			}
			for _, wr := range sh.Log {
				if wr.Op == WALAdd || wr.Op == WALUpdate {
					checkFuzzRecord(t, wr.Rec, j.Dim())
				}
			}
		}
		_ = j.VerifyData()
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// FuzzReadWAL: arbitrary bytes fed to the mutation-log reader must either
// decode cleanly or return an error — no panics, no runaway allocations.
// Records that do decode must be internally consistent, and re-encoding
// them through a fresh writer must produce a log that reads back
// identically (the replay path trusts these invariants).
func FuzzReadWAL(f *testing.F) {
	r := rand.New(rand.NewSource(44))
	dir := f.TempDir()
	valid := filepath.Join(dir, "valid.wal")
	w, err := CreateWAL(valid, 3, WALFingerprint{})
	if err != nil {
		f.Fatal(err)
	}
	rec := randRecord(r, "img-a", "sunset", 3, 2)
	rec.Bag.Names = []string{"c-quad-tl", "c-quad-tr"}
	for _, op := range []WALRecord{
		{Op: WALAdd, Rec: rec},
		{Op: WALUpdate, Rec: randRecord(r, "img-a", "", 3, 1)},
		{Op: WALDelete, Rec: Record{ID: "img-a"}},
	} {
		if err := w.Append(op); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-3]) // torn tail
	f.Add(raw[:walHeaderLen])
	f.Add([]byte{})
	f.Add([]byte(WALMagic))
	corrupt := append([]byte{}, raw...)
	corrupt[len(corrupt)/2] ^= 0xA5
	f.Add(corrupt)
	huge := append([]byte{}, raw...)
	for i := walHeaderLen; i < walHeaderLen+4 && i < len(huge); i++ {
		huge[i] = 0xFF // implausible frame length
	}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz-wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		dim, fp, recs, err := ReadWAL(path)
		if err != nil {
			return
		}
		for _, wr := range recs {
			switch wr.Op {
			case WALAdd, WALUpdate:
				if wr.Rec.Bag == nil || len(wr.Rec.Bag.Instances) == 0 {
					t.Fatalf("decoded %v record with empty bag", wr.Op)
				}
				if wr.Rec.Bag.Dim() != dim {
					t.Fatalf("decoded bag dim %d in a dim-%d log", wr.Rec.Bag.Dim(), dim)
				}
			case WALDelete:
			default:
				t.Fatalf("decoded unknown op %v", wr.Op)
			}
		}
		// Round-trip: rewriting the decoded records must reproduce them.
		back := filepath.Join(t.TempDir(), "rt-wal")
		w, err := CreateWAL(back, dim, fp)
		if err != nil {
			t.Fatal(err)
		}
		for _, wr := range recs {
			if err := w.Append(wr); err != nil {
				// Decoded-but-unwritable records (e.g. non-finite floats that
				// fail bag validation) are fine for replayers to reject.
				w.Close()
				return
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, _, again, err := ReadWAL(back)
		if err != nil {
			t.Fatalf("re-reading round-tripped log: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip decoded %d of %d records", len(again), len(recs))
		}
	})
}

// FuzzOpenFlatFile drives the zero-copy open (mmap path included) with the
// same hostile inputs: no panics, mappings released on every error path,
// and VerifyData never panics on whatever parsed.
func FuzzOpenFlatFile(f *testing.F) {
	seeds, _ := fuzzSeedFiles(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz-flat")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		fdb, err := OpenFlatFile(path)
		if err != nil {
			return
		}
		_ = fdb.VerifyData()
		if err := fdb.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// FuzzReadCacheSidecar: arbitrary bytes fed to the concept-cache sidecar
// reader must either decode cleanly or return an error — no panics, no
// runaway allocations. Entries that do decode must carry the declared
// dimensionality, and re-encoding them must produce a sidecar that reads
// back identically (the warm-start path trusts these invariants).
func FuzzReadCacheSidecar(f *testing.F) {
	r := rand.New(rand.NewSource(55))
	dir := f.TempDir()
	valid := filepath.Join(dir, "valid.ccache")
	entries := []CacheEntry{randCacheEntry(r, 3), randCacheEntry(r, 3)}
	if err := WriteCacheSidecar(valid, 3, entries); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.ccache")
	if err := WriteCacheSidecar(empty, 2, nil); err != nil {
		f.Fatal(err)
	}
	rawEmpty, err := os.ReadFile(empty)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(rawEmpty)
	f.Add(raw[:len(raw)-5]) // torn tail
	f.Add(raw[:cacheSidecarHeaderLen])
	f.Add([]byte{})
	f.Add([]byte(CacheSidecarMagic))
	corrupt := append([]byte{}, raw...)
	corrupt[cacheSidecarHeaderLen+8] ^= 0xA5
	f.Add(corrupt)
	huge := append([]byte{}, raw...)
	for i := len(CacheSidecarMagic) + 4; i < cacheSidecarHeaderLen && i < len(huge); i++ {
		huge[i] = 0xFF // implausible dimension and count
	}
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz-ccache")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		dim, got, err := ReadCacheSidecar(path)
		if err != nil {
			return
		}
		for i, e := range got {
			if len(e.Point) != dim || len(e.Weights) != dim {
				t.Fatalf("entry %d has dims %d/%d in a dim-%d sidecar", i, len(e.Point), len(e.Weights), dim)
			}
		}
		// Round-trip: rewriting the decoded entries must reproduce them.
		back := filepath.Join(t.TempDir(), "rt-ccache")
		if err := WriteCacheSidecar(back, dim, got); err != nil {
			t.Fatalf("re-encoding decoded entries: %v", err)
		}
		dim2, again, err := ReadCacheSidecar(back)
		if err != nil {
			t.Fatalf("re-reading round-tripped sidecar: %v", err)
		}
		if dim2 != dim || len(again) != len(got) {
			t.Fatalf("round trip: dim %d→%d, %d→%d entries", dim, dim2, len(got), len(again))
		}
		for i := range got {
			if got[i].Key != again[i].Key {
				t.Fatalf("round trip changed entry %d key", i)
			}
		}
	})
}
