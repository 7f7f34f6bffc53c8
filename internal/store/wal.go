// The mutation append log (WAL). A flat store file is an immutable snapshot
// of a database; the WAL that sits alongside it (by convention at
// "<store>.wal") records the add/delete/update mutations applied since that
// snapshot, so persisting a mutation is one buffered append plus an fsync
// instead of rewriting the whole flat block. Opening a database replays the
// log over the loaded snapshot; compaction writes a fresh flat file
// (atomically, via the store's temp-and-rename) and removes the log.
//
// File layout (all integers little-endian):
//
//	header: magic "MILRETW1" | uint32 version | uint32 dim |
//	        uint64 snapSize | uint32 snapTail
//	record: uint32 frameLen | frame | uint32 crc32(frame)
//	frame:  uint8 op | body
//	        op 1 (add)    body: record payload (see below)
//	        op 2 (delete) body: uint16 idLen | id
//	        op 3 (update) body: record payload
//	        op 4 (label)  body: uint16 idLen | id | uint16 labelLen | label
//	record payload:
//	        uint16 idLen | id | uint16 labelLen | label | uint32 nInst |
//	        nInst × (uint16 nameLen | name) | nInst × dim × float64
//
// Op 4 is the metadata-only fast path: a label change journals a few dozen
// bytes instead of re-encoding the full bag. (Logs containing op 4 are not
// readable by pre-label readers, which stop with an "unknown op" error — a
// loud failure, never silent misreplay.)
//
// Every record carries its own CRC-32 (IEEE) over the whole frame. Recovery
// distinguishes two failure shapes:
//
//   - A torn tail — the final record is cut short by a crash mid-append
//     (missing bytes, or a checksum mismatch on the last record in the
//     file). The tail is dropped: a record that never finished writing was
//     never acknowledged, so dropping it loses nothing. OpenWAL truncates
//     the torn bytes so the next append starts at a clean boundary.
//
//   - Mid-log damage — a record that fails its checksum (or doesn't parse)
//     with further bytes after it. That is bit rot, not a crash artifact;
//     replaying past it could silently resurrect deleted images, so readers
//     stop with ErrCorrupt and surface the damage to the operator.
//
// The header also carries a fingerprint of the snapshot the log extends
// (the snapshot file's size plus its trailing four bytes — the data CRC in
// the flat format). Folding a log into a fresh snapshot is two steps —
// write-and-rename the snapshot, then remove the log — and a crash between
// them leaves a log whose mutations the new snapshot already contains;
// replaying it would fail (duplicate adds, deletes of absent IDs) or,
// worse, silently double-apply. The fingerprint makes that state
// self-healing: a log whose fingerprint does not match the snapshot
// alongside it is stale by construction and is ignored (ErrStaleWAL), never
// replayed.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
)

// WALMagic identifies mutation-log files.
const WALMagic = "MILRETW1"

// WALVersion is the current log-format version.
const WALVersion = 1

// walHeaderLen is the byte length of the fixed header: magic, version, dim,
// snapshot fingerprint (size + tail bytes).
const walHeaderLen = len(WALMagic) + 4 + 4 + 8 + 4

// maxWALFrame bounds one frame's length as a corruption backstop.
const maxWALFrame = 1 << 30

// ErrStaleWAL marks a mutation log whose snapshot fingerprint does not
// match the snapshot sitting alongside it — the snapshot was rewritten
// (most likely a fold that crashed before removing the log, which already
// contains every logged mutation) and the log must be ignored, not
// replayed.
var ErrStaleWAL = errors.New("store: WAL does not match its snapshot")

// WALFingerprint identifies the snapshot generation a mutation log
// extends: the snapshot file's byte size and its last four bytes (the data
// CRC in the flat format — any stable tail works). Every snapshot rewrite
// changes at least the CRC, so a log carrying the fingerprint of a previous
// generation is reliably detected as stale.
type WALFingerprint struct {
	SnapSize uint64
	SnapTail uint32
}

// SnapshotFingerprint fingerprints the store file at path for WAL binding.
func SnapshotFingerprint(path string) (WALFingerprint, error) {
	f, err := os.Open(path)
	if err != nil {
		return WALFingerprint{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return WALFingerprint{}, err
	}
	fp := WALFingerprint{SnapSize: uint64(st.Size())}
	var tail [4]byte
	if st.Size() >= 4 {
		if _, err := f.ReadAt(tail[:], st.Size()-4); err != nil {
			return WALFingerprint{}, err
		}
	}
	fp.SnapTail = binary.LittleEndian.Uint32(tail[:])
	return fp, nil
}

// WALOp tags one mutation record.
type WALOp uint8

const (
	// WALAdd appends a new record to the database.
	WALAdd WALOp = 1
	// WALDelete tombstones the record with the frame's ID.
	WALDelete WALOp = 2
	// WALUpdate replaces the record carrying the frame's ID with the
	// frame's bag and label.
	WALUpdate WALOp = 3
	// WALLabel swaps the label of the record carrying the frame's ID,
	// leaving its bag untouched — a metadata-only record a few dozen bytes
	// long, the journal half of O(1) label updates.
	WALLabel WALOp = 4
)

func (op WALOp) String() string {
	switch op {
	case WALAdd:
		return "add"
	case WALDelete:
		return "delete"
	case WALUpdate:
		return "update"
	case WALLabel:
		return "label"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// WALRecord is one decoded mutation. For WALAdd/WALUpdate, Rec carries the
// full record; for WALDelete only Rec.ID is meaningful, and for WALLabel
// only Rec.ID and Rec.Label are.
type WALRecord struct {
	Op  WALOp
	Rec Record
}

// WALWriter appends mutation records to a log file. It is safe for
// concurrent use, and Sync is a group commit: concurrent callers waiting for
// durability share a single fsync — one caller becomes the leader, flushes
// everything appended so far and fsyncs once, and every waiter whose records
// that fsync covered is acknowledged together. Under write-heavy
// concurrency the fsync count is one per batch instead of one per mutation.
type WALWriter struct {
	dim int

	// mu guards the file, the buffered writer and the append counters.
	mu sync.Mutex
	// milret:guarded-by mu
	f *os.File
	// milret:guarded-by mu
	w *bufio.Writer
	// milret:guarded-by mu
	n int
	// milret:guarded-by mu
	appended uint64 // records appended so far (monotonic)
	// milret:guarded-by mu
	closed bool

	// smu guards the group-commit state; the leader releases it around the
	// fsync so followers can queue up on cond for the next batch.
	smu  sync.Mutex
	cond *sync.Cond
	// milret:guarded-by smu
	syncing bool
	// milret:guarded-by smu
	synced uint64 // highest append count covered by a completed fsync
	// milret:guarded-by smu
	syncErr error // sticky: once an fsync fails, no later ack may succeed
}

func newWALWriter(f *os.File, dim, n int) *WALWriter {
	w := &WALWriter{f: f, w: bufio.NewWriter(f), dim: dim, n: n}
	w.cond = sync.NewCond(&w.smu)
	return w
}

// ErrWALClosed is returned by appends and syncs on a closed writer.
var ErrWALClosed = errors.New("store: WAL writer closed")

// CreateWAL creates (or truncates) a mutation log for records of the given
// dimensionality, bound to the snapshot generation identified by fp, and
// returns a writer positioned after the header. The new name's directory
// entry is fsynced so the log cannot vanish after its first acknowledged
// Sync.
//
// milret:unguarded construction: the writer is not shared until this
// returns.
func CreateWAL(path string, dim int, fp WALFingerprint) (*WALWriter, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("store: non-positive dimension %d", dim)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	syncDir(path)
	w := newWALWriter(f, dim, 0)
	if _, err := w.w.WriteString(WALMagic); err != nil {
		f.Close()
		return nil, err
	}
	for _, v := range []uint32{WALVersion, uint32(dim)} {
		if err := binary.Write(w.w, binary.LittleEndian, v); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := binary.Write(w.w, binary.LittleEndian, fp.SnapSize); err != nil {
		f.Close()
		return nil, err
	}
	if err := binary.Write(w.w, binary.LittleEndian, fp.SnapTail); err != nil {
		f.Close()
		return nil, err
	}
	// Land the header immediately (no fsync yet) so the buffer only ever
	// holds record bytes and a sync that covers zero records — group-commit
	// fast path — never leaves a headerless file behind.
	if err := w.w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// OpenWAL opens an existing mutation log for appending — creating it when
// absent — after validating its header and contents. A torn tail (crash
// mid-append) is truncated away so the next record lands on a clean
// boundary; mid-log damage returns ErrCorrupt, and a log bound to a
// different snapshot generation returns ErrStaleWAL. The returned writer's
// Count is the number of intact records already in the log.
func OpenWAL(path string, dim int, fp WALFingerprint) (*WALWriter, error) {
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return CreateWAL(path, dim, fp)
	}
	fileDim, fileFP, recs, goodLen, err := scanWAL(path)
	if err != nil {
		return nil, err
	}
	if fileDim != dim {
		return nil, fmt.Errorf("store: WAL dim %d does not match store dim %d", fileDim, dim)
	}
	if fileFP != fp {
		return nil, fmt.Errorf("%w: log fingerprint %+v, snapshot %+v", ErrStaleWAL, fileFP, fp)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(goodLen); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(goodLen, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return newWALWriter(f, dim, len(recs)), nil
}

// Count returns the number of records in the log, replayed and appended.
func (w *WALWriter) Count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// AppendSeq returns the current append count — the sequence number SyncTo
// waits on. A caller that appends records and then needs them durable reads
// AppendSeq after its last Append and passes it to SyncTo; any fsync
// covering that count acknowledges the records, whoever issued it.
func (w *WALWriter) AppendSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Append buffers one mutation record. Call Sync (or SyncTo) to make it
// durable; a mutation is acknowledged only once that returns.
func (w *WALWriter) Append(rec WALRecord) error {
	var frame []byte
	switch rec.Op {
	case WALAdd, WALUpdate:
		payload, err := encodeRecordPayload(rec.Rec, w.dim)
		if err != nil {
			return err
		}
		frame = make([]byte, 0, 1+len(payload))
		frame = append(frame, byte(rec.Op))
		frame = append(frame, payload...)
	case WALDelete:
		if len(rec.Rec.ID) > math.MaxUint16 {
			return fmt.Errorf("store: WAL delete: id too long")
		}
		frame = make([]byte, 0, 3+len(rec.Rec.ID))
		frame = append(frame, byte(WALDelete))
		frame = binary.LittleEndian.AppendUint16(frame, uint16(len(rec.Rec.ID)))
		frame = append(frame, rec.Rec.ID...)
	case WALLabel:
		if len(rec.Rec.ID) > math.MaxUint16 || len(rec.Rec.Label) > math.MaxUint16 {
			return fmt.Errorf("store: WAL label: id/label too long")
		}
		frame = make([]byte, 0, 5+len(rec.Rec.ID)+len(rec.Rec.Label))
		frame = append(frame, byte(WALLabel))
		frame = binary.LittleEndian.AppendUint16(frame, uint16(len(rec.Rec.ID)))
		frame = append(frame, rec.Rec.ID...)
		frame = binary.LittleEndian.AppendUint16(frame, uint16(len(rec.Rec.Label)))
		frame = append(frame, rec.Rec.Label...)
	default:
		return fmt.Errorf("store: unknown WAL op %d", rec.Op)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	if err := binary.Write(w.w, binary.LittleEndian, uint32(len(frame))); err != nil {
		return err
	}
	if _, err := w.w.Write(frame); err != nil {
		return err
	}
	if err := binary.Write(w.w, binary.LittleEndian, crc32.ChecksumIEEE(frame)); err != nil {
		return err
	}
	w.n++
	w.appended++
	return nil
}

// Sync flushes buffered records and forces them to stable storage. It is the
// group-commit entry point: concurrent Syncs share fsyncs (see SyncTo).
func (w *WALWriter) Sync() error { return w.SyncTo(w.AppendSeq()) }

// SyncTo blocks until an fsync covering the first seq appended records has
// completed, and returns its outcome. At most one caller fsyncs at a time:
// the first uncovered caller becomes the leader, flushes the buffer and
// fsyncs once; every caller whose records that pass covered returns as soon
// as it lands. Callers arriving during an in-flight fsync wait for the next
// one — two fsyncs cover any number of concurrent committers. A failed fsync
// is sticky: after one, every SyncTo fails until the writer is discarded,
// because a record buffered across a failed fsync can no longer be promised
// to reach stable storage.
func (w *WALWriter) SyncTo(seq uint64) error {
	w.smu.Lock()
	defer w.smu.Unlock()
	for {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.synced >= seq {
			return nil
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		w.smu.Unlock()

		w.mu.Lock()
		target := w.appended
		var err error
		if w.closed {
			err = ErrWALClosed
		} else {
			err = w.w.Flush()
		}
		f := w.f
		w.mu.Unlock()
		if err == nil {
			// The fsync runs outside both locks: followers keep appending
			// into the buffer for the next batch while this one lands.
			err = f.Sync()
		}

		w.smu.Lock()
		w.syncing = false
		if err != nil {
			w.syncErr = err
		} else if target > w.synced {
			w.synced = target
		}
		w.cond.Broadcast()
	}
}

// Close flushes, syncs and closes the log file. It must not race in-flight
// Syncs: callers serialize Close behind their own commits (Journal holds its
// lock and the shard's generation for this).
func (w *WALWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.w.Flush()
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadWAL loads every intact mutation record from a log file. A torn tail
// is silently dropped (those records were never acknowledged); mid-log
// damage returns ErrCorrupt. The returned dim and fingerprint are the
// log's declared record dimensionality and the snapshot generation it
// extends — callers compare fp against SnapshotFingerprint of the snapshot
// alongside before replaying.
func ReadWAL(path string) (dim int, fp WALFingerprint, recs []WALRecord, err error) {
	dim, fp, recs, _, err = scanWAL(path)
	return dim, fp, recs, err
}

// scanWAL parses a log file, returning the decoded records plus the byte
// length of the valid prefix (header included) — the offset OpenWAL
// truncates to.
func scanWAL(path string) (dim int, fp WALFingerprint, recs []WALRecord, goodLen int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fp, nil, 0, err
	}
	if len(raw) < walHeaderLen {
		return 0, fp, nil, 0, fmt.Errorf("%w: file too short for WAL header (%d bytes)", ErrCorrupt, len(raw))
	}
	if string(raw[:len(WALMagic)]) != WALMagic {
		return 0, fp, nil, 0, fmt.Errorf("store: bad WAL magic %q", raw[:len(WALMagic)])
	}
	version := binary.LittleEndian.Uint32(raw[len(WALMagic):])
	if version != WALVersion {
		return 0, fp, nil, 0, fmt.Errorf("store: unsupported WAL version %d (want %d)", version, WALVersion)
	}
	dim = int(binary.LittleEndian.Uint32(raw[len(WALMagic)+4:]))
	if dim <= 0 || dim > 1<<20 {
		return 0, fp, nil, 0, fmt.Errorf("%w: implausible WAL dimension %d", ErrCorrupt, dim)
	}
	fp.SnapSize = binary.LittleEndian.Uint64(raw[len(WALMagic)+8:])
	fp.SnapTail = binary.LittleEndian.Uint32(raw[len(WALMagic)+16:])

	off := walHeaderLen
	for off < len(raw) {
		// A record that does not fit in the remaining bytes is a torn tail:
		// the crash hit mid-append, nothing after it can exist.
		if off+4 > len(raw) {
			break
		}
		flen := int(binary.LittleEndian.Uint32(raw[off:]))
		if flen < 1 || flen > maxWALFrame {
			// An implausible length field cannot be resynchronized past. If
			// the remaining bytes could not have held a plausible record
			// anyway treat it as torn; otherwise it is damage.
			if len(raw)-off < 4+1+4 {
				break
			}
			return 0, fp, nil, 0, fmt.Errorf("%w: WAL frame length %d at offset %d", ErrCorrupt, flen, off)
		}
		end := off + 4 + flen + 4
		if end > len(raw) {
			break // torn tail
		}
		frame := raw[off+4 : off+4+flen]
		sum := binary.LittleEndian.Uint32(raw[off+4+flen:])
		if got := crc32.ChecksumIEEE(frame); got != sum {
			if end == len(raw) {
				break // torn tail: the final record never finished writing
			}
			return 0, fp, nil, 0, fmt.Errorf("%w: WAL checksum mismatch at offset %d (got %08x, want %08x)",
				ErrCorrupt, off, got, sum)
		}
		rec, err := decodeWALFrame(frame, dim)
		if err != nil {
			// The checksum matched, so these bytes are what was written — a
			// software-level inconsistency, not a torn write.
			return 0, fp, nil, 0, fmt.Errorf("WAL record at offset %d: %w", off, err)
		}
		recs = append(recs, rec)
		off = end
	}
	return dim, fp, recs, int64(off), nil
}

// decodeWALFrame parses one checksummed frame body.
func decodeWALFrame(frame []byte, dim int) (WALRecord, error) {
	if len(frame) == 0 {
		return WALRecord{}, fmt.Errorf("%w: empty WAL frame", ErrCorrupt)
	}
	op := WALOp(frame[0])
	body := frame[1:]
	switch op {
	case WALAdd, WALUpdate:
		rec, err := decodeRecordPayload(body, dim)
		if err != nil {
			return WALRecord{}, err
		}
		return WALRecord{Op: op, Rec: rec}, nil
	case WALDelete:
		if len(body) < 2 {
			return WALRecord{}, fmt.Errorf("%w: WAL delete frame underrun", ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint16(body))
		if len(body) != 2+n {
			return WALRecord{}, fmt.Errorf("%w: WAL delete frame is %d bytes, want %d", ErrCorrupt, len(body), 2+n)
		}
		return WALRecord{Op: WALDelete, Rec: Record{ID: string(body[2 : 2+n])}}, nil
	case WALLabel:
		if len(body) < 4 {
			return WALRecord{}, fmt.Errorf("%w: WAL label frame underrun", ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint16(body))
		if len(body) < 2+n+2 {
			return WALRecord{}, fmt.Errorf("%w: WAL label frame underrun", ErrCorrupt)
		}
		id := string(body[2 : 2+n])
		m := int(binary.LittleEndian.Uint16(body[2+n:]))
		if len(body) != 4+n+m {
			return WALRecord{}, fmt.Errorf("%w: WAL label frame is %d bytes, want %d", ErrCorrupt, len(body), 4+n+m)
		}
		return WALRecord{Op: WALLabel, Rec: Record{ID: id, Label: string(body[4+n : 4+n+m])}}, nil
	}
	return WALRecord{}, fmt.Errorf("%w: unknown WAL op %d", ErrCorrupt, frame[0])
}

// WALPath returns the conventional mutation-log path for a store file.
func WALPath(storePath string) string { return storePath + ".wal" }

// RemoveWAL deletes the mutation log alongside a store file, if present —
// called after a compaction folds the log into a fresh flat snapshot. The
// directory entry is fsynced; even if the unlink is lost to a power
// failure, the resurfacing log fails its snapshot-fingerprint check and is
// ignored.
func RemoveWAL(storePath string) error {
	err := os.Remove(WALPath(storePath))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err == nil {
		syncDir(storePath)
	}
	return err
}
