package milret

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"milret/internal/store"
	"milret/internal/synth"
)

// persistTestOpts keeps training fast and deterministic for the sidecar
// tests (small resolution, few regions).
func persistTestDB(t *testing.T, ccFile string) (*Database, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "db.milret")
	db, err := NewDatabase(Options{
		Resolution: 6, Regions: 9,
		ConceptCacheMB: 8, ConceptCacheFile: ccFile,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range synth.ObjectsN(13, 3) {
		if it.Label != "car" && it.Label != "lamp" {
			continue
		}
		if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	return db, path
}

func reopenWarm(t *testing.T, path, ccFile string) *Database {
	t.Helper()
	db, err := LoadDatabase(path, Options{ConceptCacheMB: 8, ConceptCacheFile: ccFile})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestWarmRestartServesWithoutTraining is the tentpole property at the
// library level: train → Flush → Close → LoadDatabase, and the repeated
// query is a cache hit that never invokes the trainer — with rankings
// bit-identical to the pre-restart run.
func TestWarmRestartServesWithoutTraining(t *testing.T) {
	ccFile := filepath.Join(t.TempDir(), "db.ccache")
	db, path := persistTestDB(t, ccFile)
	pos := idsOf(db, "car", 2)
	neg := idsOf(db, "lamp", 1)

	c1, out, err := db.TrainCachedContext(bg, pos, neg, cacheTestOpts)
	if err != nil || out != CacheMiss {
		t.Fatalf("first train: %v, %v", out, err)
	}
	wantRank := db.RetrieveExcluding(c1, 5, append(pos, neg...))
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ccFile); err != nil {
		t.Fatalf("Flush did not write the sidecar: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	warm := reopenWarm(t, path, ccFile)
	st := warm.Stats()
	if st.Cache == nil || st.Cache.WarmLoaded != 1 || st.Cache.Entries != 1 {
		t.Fatalf("warm open cache stats = %+v", st.Cache)
	}
	before := ddEvals()
	c2, out, err := warm.TrainCachedContext(bg, pos, neg, cacheTestOpts)
	if err != nil || out != CacheHit {
		t.Fatalf("post-restart train: %v, %v; want hit", out, err)
	}
	if got := ddEvals(); got != before {
		t.Fatalf("warm restart invoked the trainer (%d evals)", got-before)
	}
	gotRank := warm.RetrieveExcluding(c2, 5, append(pos, neg...))
	if !reflect.DeepEqual(wantRank, gotRank) {
		t.Fatalf("warm ranking differs:\npre-restart %v\npost-restart %v", wantRank, gotRank)
	}
}

// TestCloseWritesSidecar: a graceful shutdown that skips Flush still
// leaves the warm-start file behind.
func TestCloseWritesSidecar(t *testing.T) {
	ccFile := filepath.Join(t.TempDir(), "db.ccache")
	db, path := persistTestDB(t, ccFile)
	pos := idsOf(db, "car", 1)
	if _, _, err := db.TrainCachedContext(bg, pos, nil, cacheTestOpts); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	warm := reopenWarm(t, path, ccFile)
	if st := warm.Stats(); st.Cache.WarmLoaded != 1 {
		t.Fatalf("after Close-only shutdown: %+v", st.Cache)
	}
}

// TestSidecarSkippedWhenUnchanged: a Flush with no cache changes since
// the last capture must not rewrite the sidecar (deleting the file and
// flushing again proves the skip; new training re-arms the write).
func TestSidecarSkippedWhenUnchanged(t *testing.T) {
	ccFile := filepath.Join(t.TempDir(), "db.ccache")
	db, _ := persistTestDB(t, ccFile)
	defer db.Close()
	pos := idsOf(db, "car", 1)
	if _, _, err := db.TrainCachedContext(bg, pos, nil, cacheTestOpts); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ccFile); err != nil {
		t.Fatal(err)
	}
	// Unchanged cache: the flush skips the sidecar write.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ccFile); !os.IsNotExist(err) {
		t.Fatalf("unchanged flush rewrote the sidecar (stat err %v)", err)
	}
	// A repeat query is recency-only traffic — still no rewrite.
	if _, out, err := db.TrainCachedContext(bg, pos, nil, cacheTestOpts); err != nil || out != CacheHit {
		t.Fatalf("repeat: %v, %v", out, err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ccFile); !os.IsNotExist(err) {
		t.Fatalf("hit-only flush rewrote the sidecar (stat err %v)", err)
	}
	// Fresh training changes the content; the next flush writes.
	neg := idsOf(db, "lamp", 1)
	if _, out, err := db.TrainCachedContext(bg, pos, neg, cacheTestOpts); err != nil || out != CacheMiss {
		t.Fatalf("fresh train: %v, %v", out, err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ccFile); err != nil {
		t.Fatalf("changed flush did not write the sidecar: %v", err)
	}
}

// TestSidecarTornTailWarmLoad: a sidecar whose tail was cut mid-record
// (crash during a rewrite that somehow survived the atomic rename — e.g.
// a copied file) warm-loads its intact prefix and the open never errors.
func TestSidecarTornTailWarmLoad(t *testing.T) {
	ccFile := filepath.Join(t.TempDir(), "db.ccache")
	db, path := persistTestDB(t, ccFile)
	pos := idsOf(db, "car", 2)
	neg := idsOf(db, "lamp", 1)
	// Two distinct cached queries → two sidecar records.
	if _, _, err := db.TrainCachedContext(bg, pos, neg, cacheTestOpts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TrainCachedContext(bg, pos[:1], nil, cacheTestOpts); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	raw, err := os.ReadFile(ccFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ccFile, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	warm := reopenWarm(t, path, ccFile)
	st := warm.Stats()
	if st.Cache.WarmLoaded != 1 {
		t.Fatalf("torn tail warm-loaded %d entries, want the intact 1", st.Cache.WarmLoaded)
	}
	// The surviving (hotter) entry serves without training.
	before := ddEvals()
	if _, out, err := warm.TrainCachedContext(bg, pos[:1], nil, cacheTestOpts); err != nil || out != CacheHit {
		t.Fatalf("surviving entry: %v, %v", out, err)
	}
	if ddEvals() != before {
		t.Fatal("surviving entry retrained")
	}
}

// TestSidecarCorruptionIgnored: mid-file bit rot means the whole sidecar
// is distrusted — the store still opens, cold, and queries just retrain.
func TestSidecarCorruptionIgnored(t *testing.T) {
	ccFile := filepath.Join(t.TempDir(), "db.ccache")
	db, path := persistTestDB(t, ccFile)
	pos := idsOf(db, "car", 2)
	if _, _, err := db.TrainCachedContext(bg, pos, nil, cacheTestOpts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TrainCachedContext(bg, pos[:1], nil, cacheTestOpts); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	raw, err := os.ReadFile(ccFile)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xA5 // first record's frame: damage with bytes after it
	if err := os.WriteFile(ccFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	warm := reopenWarm(t, path, ccFile)
	st := warm.Stats()
	if st.Cache.WarmLoaded != 0 || st.Cache.Entries != 0 {
		t.Fatalf("corrupt sidecar warm-loaded entries: %+v", st.Cache)
	}
	if _, out, err := warm.TrainCachedContext(bg, pos, nil, cacheTestOpts); err != nil || out != CacheMiss {
		t.Fatalf("cold query after corrupt sidecar: %v, %v", out, err)
	}
}

// TestSidecarStaleEntriesDropped: entries that cannot belong to this
// store — wrong dimensionality (whole file), unknown weight mode or
// non-finite geometry (per entry) — are dropped on load, silently.
func TestSidecarStaleEntriesDropped(t *testing.T) {
	ccFile := filepath.Join(t.TempDir(), "db.ccache")
	db, path := persistTestDB(t, ccFile)
	dim := db.Stats().Dim
	db.Close()

	// Whole file at a foreign dimensionality: ignored.
	foreign := make([]float64, dim+1)
	if err := store.WriteCacheSidecar(ccFile, dim+1, []store.CacheEntry{{
		Key: [32]byte{1}, Point: foreign, Weights: foreign,
	}}); err != nil {
		t.Fatal(err)
	}
	warm := reopenWarm(t, path, ccFile)
	if st := warm.Stats(); st.Cache.WarmLoaded != 0 {
		t.Fatalf("foreign-dim sidecar warm-loaded: %+v", st.Cache)
	}
	warm.Close()

	// Right dimensionality, but one entry has an unknown mode and another
	// non-finite geometry: only the sound entry loads.
	good := make([]float64, dim)
	for i := range good {
		good[i] = 0.5
	}
	nan := append([]float64(nil), good...)
	nan[0] = math.NaN()
	if err := store.WriteCacheSidecar(ccFile, dim, []store.CacheEntry{
		{Key: [32]byte{1}, Mode: 0, Point: good, Weights: good},
		{Key: [32]byte{2}, Mode: 200, Point: good, Weights: good},
		{Key: [32]byte{3}, Mode: 0, Point: nan, Weights: good},
	}); err != nil {
		t.Fatal(err)
	}
	warm2 := reopenWarm(t, path, ccFile)
	if st := warm2.Stats(); st.Cache.WarmLoaded != 1 {
		t.Fatalf("stale entries not dropped: %+v", st.Cache)
	}
}

// TestSidecarRetiredModeDropped: a sidecar written before the α-hack went
// can hold its entries, under mode 2. No request fingerprints to them any
// more, so they are dropped on load (and so never written back), while the
// constrained entry beside them is served as a hit.
func TestSidecarRetiredModeDropped(t *testing.T) {
	ccFile := filepath.Join(t.TempDir(), "db.ccache")
	db, path := persistTestDB(t, ccFile)
	pos := idsOf(db, "car", 2)
	neg := idsOf(db, "lamp", 1)
	opts := TrainOptions{Mode: ConstrainedWeights, Beta: 0.5, MaxIters: 10, StartBags: 1}
	if _, out, err := db.TrainCachedContext(bg, pos, neg, opts); err != nil || out != CacheMiss {
		t.Fatalf("first train: %v, %v", out, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	dim, saved, err := store.ReadCacheSidecar(ccFile)
	if err != nil || len(saved) != 1 || saved[0].Mode != 3 {
		t.Fatalf("sidecar after close: %d entries, err %v", len(saved), err)
	}
	retired := saved[0]
	retired.Key[0] ^= 0xff
	retired.Mode = 2
	if err := store.WriteCacheSidecar(ccFile, dim, []store.CacheEntry{retired, saved[0]}); err != nil {
		t.Fatal(err)
	}

	warm := reopenWarm(t, path, ccFile)
	if st := warm.Stats(); st.Cache.WarmLoaded != 1 || st.Cache.Entries != 1 {
		t.Fatalf("warm open with a mode-2 entry: %+v", st.Cache)
	}
	before := ddEvals()
	if _, out, err := warm.TrainCachedContext(bg, pos, neg, opts); err != nil || out != CacheHit {
		t.Fatalf("constrained query after warm open: %v, %v; want hit", out, err)
	}
	if got := ddEvals(); got != before {
		t.Fatalf("hit invoked the trainer (%d evals)", got-before)
	}
	// A miss re-arms the sidecar write; the rewrite holds live modes only.
	if _, out, err := warm.TrainCachedContext(bg, pos, nil, opts); err != nil || out != CacheMiss {
		t.Fatalf("fresh train: %v, %v", out, err)
	}
	if err := warm.Flush(); err != nil {
		t.Fatal(err)
	}
	_, rewritten, err := store.ReadCacheSidecar(ccFile)
	if err != nil || len(rewritten) != 2 {
		t.Fatalf("rewritten sidecar: %d entries, err %v", len(rewritten), err)
	}
	for _, e := range rewritten {
		if e.Mode != 3 {
			t.Fatalf("rewritten sidecar kept a mode-%d entry", e.Mode)
		}
	}
}

// TestSidecarMissingIsColdStart: no sidecar file at all is the ordinary
// first boot — open succeeds, cache starts empty.
func TestSidecarMissingIsColdStart(t *testing.T) {
	ccFile := filepath.Join(t.TempDir(), "db.ccache")
	db, path := persistTestDB(t, ccFile)
	db.Close()
	os.Remove(ccFile)
	warm := reopenWarm(t, path, ccFile)
	if st := warm.Stats(); st.Cache.WarmLoaded != 0 || st.Cache.Entries != 0 {
		t.Fatalf("missing sidecar: %+v", st.Cache)
	}
}
