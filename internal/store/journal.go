// The store's owner. A store on disk is either one flat snapshot at its
// path (a single-shard database) or a manifest at its path naming one
// snapshot per shard; beside every snapshot sits, optionally, the mutation
// log that extends it. Journal is the only code that knows this, and the
// only code that changes those files:
//
//   - Files change in one order: snapshots first, the manifest last, then
//     the logs the new snapshots supersede are removed. A manifest that
//     exists therefore references snapshots that exist, and a log left
//     behind by a crash names (by fingerprint) a snapshot that is gone, so
//     it is ignored rather than replayed twice.
//   - A shard's snapshot is replaced in exactly one way (replaceLocked):
//     write the new file atomically, then retire that shard's log writer,
//     remove its log, reset its counts and give it a fresh generation —
//     all before any other shard is touched. Threshold folds, distrust
//     folds and Compact are that primitive, once or once per shard.
//   - A mutation is acknowledged when the Save covering it returns:
//     records are appended to the shard logs under the lock and fsynced
//     outside it, so concurrent commits share fsyncs (see WALWriter).
//
// One lock orders everything: Apply holds it across "mutate the database"
// and "queue the record", staging holds it while it drains the queues or
// snapshots a shard. Per shard, journal order is therefore apply order, and
// a fold always sees exactly the state its pending list was applied to.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// FoldMinOps is the fold policy's floor. An oversized log makes reopening
// slow (every record is replayed), so a commit folds a shard into a fresh
// snapshot once its log would outgrow half the shard's live records — but
// never for logs of at most this many records.
const FoldMinOps = 64

// Live is the in-memory database a Journal persists, as far as the journal
// needs to see it. Both methods are called with the journal lock held, so
// they observe exactly the mutations Apply has let through.
type Live interface {
	// Count is the shard's live record count, the fold policy's yardstick.
	Count(shard int) int
	// Records materializes the shard's live records in insertion order —
	// the content of its next snapshot.
	Records(shard int) []Record
}

// Depth is one shard's journal depth.
type Depth struct {
	// Pending counts mutations applied in memory and not yet committed.
	Pending int
	// Durable counts the records durable in the shard's log; -1 while the
	// log cannot be trusted (a failed append or fsync) and the next commit
	// will fold the shard instead of appending to it.
	Durable int
}

// Journal owns one store on disk. The zero-path journal NewJournal returns
// is unbound: mutations pass straight through and commits have nothing to
// do until a Save names a path.
type Journal struct {
	dim int // feature dimensionality; immutable
	// flats are the snapshots Open adopted zero-copy, retained so Close can
	// release their memory mappings; immutable (FlatDB serializes its own
	// VerifyData and Close).
	flats []*FlatDB

	mu sync.Mutex
	// path is the store path — the flat file of a single-shard store, the
	// manifest of a sharded one; "" while unbound.
	//
	// milret:guarded-by mu
	path string
	// shards has one entry per database shard, bound or not.
	//
	// milret:guarded-by mu
	shards []journalShard
	// genSeq is the source of shard generations; it never repeats.
	//
	// milret:guarded-by mu
	genSeq uint64
}

type journalShard struct {
	// path is the shard's snapshot file. A store created here uses the
	// canonical ShardPath names; an opened one keeps whatever its manifest
	// resolved to (a renamed manifest must keep updating the files it
	// references, never orphans under recomputed names).
	path string
	// pending holds mutations applied in memory but not yet in the log.
	pending []WALRecord
	// w is the open log writer, held across commits so a commit costs
	// buffered appends plus one group-committed fsync; nil until the shard's
	// first commit and after every fold.
	w *WALWriter
	// durable is the record count already durable in the log (see Depth).
	durable int
	// gen changes every time a fold or rebind supersedes the shard's log. A
	// committer whose fsync failed compares it with the value it staged
	// under: if it moved, a snapshot of the full in-memory state — its
	// records included — landed since, and the lost fsync is moot.
	gen uint64
}

// NewJournal returns the unbound journal of an in-memory database with the
// given dimensionality and shard count.
func NewJournal(dim, shards int) *Journal {
	return &Journal{dim: dim, shards: make([]journalShard, shards)}
}

// Dim returns the store's feature dimensionality.
func (j *Journal) Dim() int { return j.dim }

// Shard is one shard of an opened store: its snapshot, adopted zero-copy,
// and the records of its mutation log to replay over it, in order.
type Shard struct {
	Flat *FlatDB
	Log  []WALRecord
}

// Open opens the store at path — a manifest or a single flat file, told
// apart by magic — and returns the journal bound to it plus every shard's
// content. Snapshots open zero-copy with their data checksum deferred (see
// VerifyData). The store's dimensionality is the one its snapshot headers
// declare; headers that disagree are refused. A log is returned for replay
// only when its fingerprint names the snapshot beside it: a log from an
// earlier snapshot generation (a fold that crashed before removing it) is
// already contained in the snapshot and is skipped; the next commit folds
// it away. A torn log tail is dropped, mid-log damage is an error.
//
// milret:unguarded construction: the journal is not shared until this returns.
func Open(path string) (*Journal, []Shard, error) {
	magic, err := readMagic(path)
	if err != nil {
		return nil, nil, err
	}
	paths := []string{path}
	switch magic {
	case FlatMagic:
	case ManifestMagic:
		if paths, err = ReadManifest(path); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("store: bad magic %q", magic)
	}
	j := &Journal{}
	// Any error below must release the snapshots opened so far.
	fail := func(err error) (*Journal, []Shard, error) {
		j.Close()
		return nil, nil, err
	}
	shards := make([]Shard, len(paths))
	for i, p := range paths {
		flat, err := OpenFlatFile(p)
		if err != nil {
			return fail(err)
		}
		j.flats = append(j.flats, flat)
		if i == 0 {
			j.dim = flat.Dim
		} else if flat.Dim != j.dim {
			return fail(fmt.Errorf("store: shard %d has dim %d, shard 0 has dim %d", i, flat.Dim, j.dim))
		}
		shards[i].Flat = flat
		if shards[i].Log, err = readBoundLog(p, j.dim); err != nil {
			return fail(err)
		}
	}
	j.bindLocked(path, paths)
	for i := range shards {
		j.shards[i].durable = len(shards[i].Log)
	}
	return j, shards, nil
}

// readBoundLog reads the log beside a snapshot, if there is one and it is
// bound to that snapshot.
func readBoundLog(snapshot string, dim int) ([]WALRecord, error) {
	logDim, fp, recs, err := ReadWAL(WALPath(snapshot))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	snapFP, err := SnapshotFingerprint(snapshot)
	if err != nil {
		return nil, err
	}
	if fp != snapFP {
		return nil, nil // stale: already folded into the snapshot
	}
	if logDim != dim {
		return nil, fmt.Errorf("store: WAL dim %d does not match store dim %d", logDim, dim)
	}
	return recs, nil
}

// Create writes a fresh store at path: one flat file for a single shard,
// otherwise one snapshot per shard under the canonical ShardPath names and
// a manifest. A log found beside an overwritten snapshot belongs to some
// earlier store at the same path and is removed.
func Create(path string, dim int, shards [][]Record) error {
	if len(shards) == 0 {
		return fmt.Errorf("store: create with no shards")
	}
	return NewJournal(dim, len(shards)).Save(path, records(shards))
}

// records is the Live view of a database that is just its records.
type records [][]Record

func (r records) Count(shard int) int        { return len(r[shard]) }
func (r records) Records(shard int) []Record { return r[shard] }

// bindLocked points the journal at the given snapshots under path. Every
// shard gets a fresh generation, so a commit staged against the previous
// binding cannot mistake the new logs for its own.
func (j *Journal) bindLocked(path string, snapshots []string) {
	j.path = path
	j.shards = make([]journalShard, len(snapshots))
	for i, p := range snapshots {
		j.genSeq++
		j.shards[i] = journalShard{path: p, gen: j.genSeq}
	}
}

func (j *Journal) retireWriterLocked(si int) {
	if w := j.shards[si].w; w != nil {
		w.Close()
		j.shards[si].w = nil
	}
}

// Apply runs one mutation of the in-memory database and, when it succeeds,
// queues rec — its journal record — on the shard's pending list for the
// next Save. Holding the lock across both keeps the shard's journal order
// identical to its apply order, so a replay reconstructs the same state —
// which is also why apply (like every Live method) runs under the lock and
// must not call back into the journal. An unbound journal queues nothing:
// its first Save snapshots everything.
func (j *Journal) Apply(shard int, rec WALRecord, apply func() error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := apply(); err != nil {
		return err
	}
	if j.path != "" {
		j.shards[shard].pending = append(j.shards[shard].pending, rec)
	}
	return nil
}

// Save makes every applied mutation durable at path. The empty path means
// "wherever the journal is bound when the lock is taken" and does nothing
// for an unbound journal; a path the journal is not bound to gets a full
// store (see saveAsLocked) and the journal rebinds to it. A save to the
// bound path is incremental and per shard: pending records are appended to
// the shard's log, or — when the log would outgrow half the shard, or cannot
// be trusted — the shard alone is folded into a fresh snapshot.
//
// The appends happen under the lock, the fsyncs that acknowledge them
// outside it, shared with every concurrent Save (group commit). Every
// staged shard is synced even when staging stopped early on an error: a
// shard whose pending list was drained into its log must get its fsync, or
// a later, otherwise clean Save would acknowledge durability the records
// never had.
func (j *Journal) Save(path string, live Live) error {
	j.mu.Lock()
	staged, stageErr := j.stageLocked(path, live)
	j.mu.Unlock()
	var syncErr error
	var failed []stagedSync
	for _, s := range staged {
		if err := s.w.SyncTo(s.seq); err != nil {
			failed = append(failed, s)
			if syncErr == nil {
				syncErr = err
			}
		}
	}
	if syncErr != nil {
		j.mu.Lock()
		lost := false
		for _, s := range failed {
			if j.shards[s.shard].gen != s.gen {
				// A fold or rebind superseded this shard's log since staging.
				// It snapshotted the full in-memory state, these records
				// included, atomically and durably: the lost fsync is moot.
				continue
			}
			// What reached the disk is unknown; distrust the log so the next
			// Save folds the shard into a fresh snapshot.
			lost = true
			if j.shards[s.shard].w == s.w {
				j.retireWriterLocked(s.shard)
			}
			j.shards[s.shard].durable = -1
		}
		j.mu.Unlock()
		if !lost {
			syncErr = nil
		}
	}
	if stageErr != nil {
		return stageErr
	}
	return syncErr
}

// stagedSync is one shard's staged-but-unsynced commit: the writer and the
// append sequence an fsync must cover before the commit may be
// acknowledged, plus the shard's generation at stage time.
type stagedSync struct {
	shard int
	w     *WALWriter
	seq   uint64
	gen   uint64
}

// stageLocked routes Save and stages an incremental one. On error the
// shards staged so far are still returned; the caller must sync them.
func (j *Journal) stageLocked(path string, live Live) ([]stagedSync, error) {
	if path == "" {
		path = j.path
	}
	if path != j.path {
		return nil, j.saveAsLocked(path, live)
	}
	var staged []stagedSync
	for si := range j.shards {
		if len(j.shards[si].pending) == 0 {
			continue
		}
		s, err := j.stageShardLocked(si, live)
		if err != nil {
			return staged, err
		}
		if s != nil {
			staged = append(staged, *s)
		}
	}
	return staged, nil
}

// saveAsLocked is the one way a store comes to exist at a path: every
// snapshot is written, then the manifest, then the logs the new snapshots
// supersede are removed (should a removal be lost to a crash, the leftover
// log fails its fingerprint check on the next open and is ignored), and the
// journal rebinds to the new files.
func (j *Journal) saveAsLocked(path string, live Live) error {
	paths := []string{path}
	if len(j.shards) > 1 {
		paths = make([]string, len(j.shards))
		for si := range paths {
			paths[si] = ShardPath(path, si)
		}
	}
	for si, p := range paths {
		if err := WriteFlatFile(p, j.dim, live.Records(si)); err != nil {
			return fmt.Errorf("store: write shard %d: %w", si, err)
		}
	}
	if len(paths) > 1 {
		names := make([]string, len(paths))
		for si, p := range paths {
			names[si] = filepath.Base(p)
		}
		if err := WriteManifest(path, names); err != nil {
			return fmt.Errorf("store: write manifest: %w", err)
		}
	}
	for si, p := range paths {
		j.retireWriterLocked(si)
		if err := RemoveWAL(p); err != nil {
			return err
		}
	}
	j.bindLocked(path, paths)
	return nil
}

// stageShardLocked appends one shard's pending records to its log and
// returns what the caller must fsync — nil when the shard was folded
// instead. The shard's first commit opens (or creates) its log, which
// truncates a torn tail and validates the log against the snapshot's
// fingerprint and the journal's record count; a log that is corrupt, stale
// or out of step cannot be appended to, so the shard is folded.
func (j *Journal) stageShardLocked(si int, live Live) (*stagedSync, error) {
	sh := &j.shards[si]
	total := sh.durable + len(sh.pending)
	if sh.durable < 0 || (total > FoldMinOps && total > live.Count(si)/2) {
		return nil, j.replaceLocked(si, live)
	}
	if sh.w == nil {
		fp, err := SnapshotFingerprint(sh.path)
		if err != nil {
			return nil, err
		}
		w, err := OpenWAL(WALPath(sh.path), j.dim, fp)
		if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrStaleWAL) {
			return nil, j.replaceLocked(si, live)
		}
		if err != nil {
			return nil, err
		}
		if w.Count() != sh.durable {
			w.Close()
			return nil, j.replaceLocked(si, live)
		}
		sh.w = w
	}
	for _, rec := range sh.pending {
		if err := sh.w.Append(rec); err != nil {
			// The log now holds an unknown prefix of this batch; distrust it.
			j.retireWriterLocked(si)
			sh.durable = -1
			return nil, err
		}
	}
	sh.durable += len(sh.pending)
	sh.pending = nil
	return &stagedSync{shard: si, w: sh.w, seq: sh.w.AppendSeq(), gen: sh.gen}, nil
}

// replaceLocked replaces one shard's snapshot — and only that shard's — with
// its live records: the new file lands atomically and durably, then the
// shard's writer is retired, its log removed, its counts reset and its
// generation bumped. Nothing of any other shard is touched, so a caller
// replacing several shards that fails on one leaves every other shard
// either fully replaced or fully as it was, each still bound to the log
// that matches its snapshot.
func (j *Journal) replaceLocked(si int, live Live) error {
	sh := &j.shards[si]
	if err := WriteFlatFile(sh.path, j.dim, live.Records(si)); err != nil {
		return err
	}
	j.retireWriterLocked(si)
	if err := RemoveWAL(sh.path); err != nil {
		return err
	}
	sh.durable = 0
	sh.pending = nil
	j.genSeq++
	sh.gen = j.genSeq
	return nil
}

// Compact folds every shard's log into a fresh snapshot, one shard at a
// time. A no-op for an unbound journal.
func (j *Journal) Compact(live Live) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.path == "" {
		return nil
	}
	for si := range j.shards {
		if err := j.replaceLocked(si, live); err != nil {
			return err
		}
	}
	return nil
}

// Depth reports every shard's journal depth; nil for an unbound journal.
func (j *Journal) Depth() []Depth {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.path == "" {
		return nil
	}
	out := make([]Depth, len(j.shards))
	for i, sh := range j.shards {
		out[i] = Depth{Pending: len(sh.pending), Durable: sh.durable}
	}
	return out
}

// VerifyData checksums the snapshot blocks Open adopted. It is safe to run
// beside everything else, Close included: a snapshot closed before its pass
// finished answers ErrClosed.
func (j *Journal) VerifyData() error {
	for _, f := range j.flats {
		if err := f.VerifyData(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes the open log writers and releases the snapshots' memory
// mappings. Pending mutations are not committed.
func (j *Journal) Close() error {
	j.mu.Lock()
	for si := range j.shards {
		j.retireWriterLocked(si)
	}
	j.mu.Unlock()
	var err error
	for _, f := range j.flats {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// readMagic returns the first eight bytes of the file at path — fewer when
// the file is shorter, which matches no magic.
func readMagic(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	magic := make([]byte, len(ManifestMagic))
	n, err := io.ReadFull(f, magic)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return "", err
	}
	return string(magic[:n]), nil
}
