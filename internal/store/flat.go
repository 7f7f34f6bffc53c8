// Flat store format: a shard's snapshot. All instance vectors of all
// records are serialized as one contiguous little-endian float64 block,
// mirroring the in-memory layout of the internal/index scoring engine, so a
// database opens by adopting the data block instead of decoding one small
// payload per vector.
//
// File layout (all integers little-endian):
//
//	header: magic "MILRETX1" | uint32 version | uint32 dim |
//	        uint32 nItems | uint64 nInstances
//	meta:   uint32 metaLen | metaPayload | uint32 crc32(metaPayload)
//	pad:    zero bytes until the data block's file offset is a multiple of
//	        8 (both sides derive the count, it is not stored)
//	data:   nInstances × dim × float64 | uint32 crc32(data bytes)
//
//	metaPayload, per item:
//	        uint16 idLen | id | uint16 labelLen | label |
//	        uint32 nInst | uint8 hasNames |
//	        hasNames × nInst × (uint16 nameLen | name)
//
// The 8-byte data alignment is what makes zero-copy open possible: on
// little-endian hosts the mapped (or read) file bytes are reinterpreted in
// place as the []float64 instance block — open costs O(items) meta decoding
// plus O(instances) slice headers, never a per-float decode. Big-endian
// hosts fall back to one bulk conversion pass. Loaded bags share the adopted
// block: each instance is a slice view into it.
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
	"unsafe"

	"milret/internal/mat"
	"milret/internal/mil"
)

// FlatMagic identifies flat-format store files.
const FlatMagic = "MILRETX1"

// FlatVersion is the one flat-format version: its data block is padded to
// an 8-byte file offset for zero-copy adoption.
const FlatVersion = 2

// maxFlatItems bounds the item count as a corruption backstop.
const maxFlatItems = 1 << 28

// maxFlatDataBytes bounds the flat data block as a corruption backstop, so a
// damaged header surfaces ErrCorrupt instead of a panic-sized allocation.
const maxFlatDataBytes = 1 << 36

// flatHeaderLen is the byte length of the fixed header: magic, version,
// dim, nItems, nInstances.
const flatHeaderLen = len(FlatMagic) + 4 + 4 + 4 + 8

// flatPad returns the number of zero bytes inserted after the meta checksum
// (which ends at file offset end) so the data block starts 8-byte aligned.
func flatPad(end int) int {
	return (8 - end%8) % 8
}

// WriteFlatFile writes all records to path atomically and durably in the
// flat columnar format: temp file in the same directory, fsync, rename,
// directory fsync. Durability matters because the incremental-save path
// removes the fsynced mutation log right after a snapshot rewrite — the
// snapshot must be on stable storage before the log that duplicates its
// contents disappears. Record bags must be valid and share dimensionality
// dim.
func WriteFlatFile(path string, dim int, recs []Record) error {
	return atomicWriteFile(path, ".milret-store-*", func(tmp *os.File) error {
		return writeFlat(tmp, dim, recs)
	})
}

func writeFlat(w io.Writer, dim int, recs []Record) error {
	if dim <= 0 {
		return fmt.Errorf("store: non-positive dimension %d", dim)
	}
	var nInstances uint64
	meta := make([]byte, 0, 64*len(recs))
	for _, rec := range recs {
		if rec.Bag == nil {
			return fmt.Errorf("store: record %q has nil bag", rec.ID)
		}
		if err := rec.Bag.Validate(); err != nil {
			return err
		}
		if rec.Bag.Dim() != dim {
			return fmt.Errorf("store: record %q dim %d, store dim %d", rec.ID, rec.Bag.Dim(), dim)
		}
		if len(rec.ID) > math.MaxUint16 || len(rec.Label) > math.MaxUint16 {
			return fmt.Errorf("store: record %q: id/label too long", rec.ID)
		}
		nInstances += uint64(len(rec.Bag.Instances))
		meta = binary.LittleEndian.AppendUint16(meta, uint16(len(rec.ID)))
		meta = append(meta, rec.ID...)
		meta = binary.LittleEndian.AppendUint16(meta, uint16(len(rec.Label)))
		meta = append(meta, rec.Label...)
		meta = binary.LittleEndian.AppendUint32(meta, uint32(len(rec.Bag.Instances)))
		if rec.Bag.Names == nil {
			meta = append(meta, 0)
			continue
		}
		meta = append(meta, 1)
		for _, name := range rec.Bag.Names {
			if len(name) > math.MaxUint16 {
				return fmt.Errorf("store: record %q: instance name too long", rec.ID)
			}
			meta = binary.LittleEndian.AppendUint16(meta, uint16(len(name)))
			meta = append(meta, name...)
		}
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(FlatMagic); err != nil {
		return err
	}
	for _, v := range []uint32{FlatVersion, uint32(dim), uint32(len(recs))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, nInstances); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(meta))); err != nil {
		return err
	}
	if _, err := bw.Write(meta); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc32.ChecksumIEEE(meta)); err != nil {
		return err
	}
	var padZeros [8]byte
	pad := flatPad(flatHeaderLen + 4 + len(meta) + 4)
	if _, err := bw.Write(padZeros[:pad]); err != nil {
		return err
	}

	dataCRC := crc32.NewIEEE()
	row := make([]byte, dim*8)
	for _, rec := range recs {
		for _, inst := range rec.Bag.Instances {
			for k, v := range inst {
				binary.LittleEndian.PutUint64(row[k*8:], math.Float64bits(v))
			}
			dataCRC.Write(row)
			if _, err := bw.Write(row); err != nil {
				return err
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, dataCRC.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// FlatDB is an open flat-format store: the decoded records plus the adopted
// instance block they share. On little-endian hosts Data is the file's own
// bytes viewed as float64s — no copy, no per-element decode — optionally
// backed by a memory mapping; otherwise it is one bulk-converted buffer.
// Records' bag instances are slice views into Data in file order, so an
// index can adopt the block wholesale.
type FlatDB struct {
	// Dim is the instance dimensionality.
	Dim int
	// Records are the decoded items; their bags alias Data.
	Records []Record
	// Data is the row-major instance block shared by all records.
	Data []float64
	// Counts is the per-record instance count (parallel to Records).
	Counts []int

	// mu serializes VerifyData against Close so a background verification
	// (milret runs one after a fast load) can never race the munmap.
	mu sync.Mutex
	// milret:guarded-by mu
	mapped []byte // retained memory mapping backing Data, nil otherwise
	// milret:guarded-by mu
	raw []byte // file bytes backing Data (zero-copy), nil if converted
	// dataOff and dataSum are fixed at parse time and immutable after.
	dataOff int
	dataSum uint32
	// milret:guarded-by mu
	verified bool
}

// ErrClosed is returned by operations on a FlatDB whose mapping has been
// released by Close.
var ErrClosed = errors.New("store: flat store closed")

// ZeroCopy reports whether Data aliases the file bytes directly (as opposed
// to a converted copy).
func (f *FlatDB) ZeroCopy() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.raw != nil
}

// VerifyData checksums the data block against the stored CRC. On the
// zero-copy path this is the integrity check OpenFlatFile defers to keep
// open O(items); converted opens have already verified during conversion,
// so repeated calls are free. Safe to call from a background goroutine: a
// concurrent Close blocks until the checksum pass finishes, and VerifyData
// after Close returns ErrClosed instead of touching the released mapping.
func (f *FlatDB) VerifyData() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.verified {
		return nil
	}
	if f.raw == nil {
		return fmt.Errorf("VerifyData: %w", ErrClosed)
	}
	got := crc32.ChecksumIEEE(f.raw[f.dataOff : f.dataOff+len(f.Data)*8])
	if got != f.dataSum {
		return fmt.Errorf("%w: data checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, f.dataSum)
	}
	f.verified = true
	return nil
}

// Close releases the memory mapping, if any; Records and Data must not be
// used afterwards. Closing a heap-backed FlatDB is a no-op. Callers that
// hand the records to a long-lived database simply keep the FlatDB (or drop
// it without Close) — an unreferenced mapping stays valid for the life of
// the process and is page-cache backed.
func (f *FlatDB) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mapped == nil {
		return nil
	}
	m := f.mapped
	f.mapped = nil
	f.raw = nil
	f.Data = nil
	f.Records = nil
	return munmapFile(m)
}

// hostLittleEndian reports whether this machine stores float64s in the
// file's byte order, the precondition for reinterpreting file bytes as
// []float64.
func hostLittleEndian() bool {
	return binary.NativeEndian.Uint16([]byte{1, 0}) == 1
}

// OpenFlatFile opens a flat-format store zero-copy: the file is memory
// mapped when the platform supports it (read entirely otherwise), the meta
// section is decoded and checksummed, and the data block is adopted in
// place. Open cost is O(items) meta decoding plus O(instances) slice
// headers; the instance floats are not touched — call VerifyData to pay one
// checksum pass when end-to-end integrity matters more than open latency.
//
// milret:unguarded construction: the FlatDB is not shared until this
// returns.
func OpenFlatFile(path string) (*FlatDB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > maxFlatDataBytes {
		return nil, fmt.Errorf("%w: implausible file size %d", ErrCorrupt, size)
	}
	var raw []byte
	mapped := false
	if mmapSupported && size > 0 {
		if m, err := mmapFile(f, int(size)); err == nil {
			raw, mapped = m, true
		}
	}
	if raw == nil {
		raw, err = io.ReadAll(io.LimitReader(f, size))
		if err != nil {
			return nil, err
		}
	}
	fdb, err := parseFlat(raw)
	if err != nil {
		if mapped {
			munmapFile(raw)
		}
		return nil, err
	}
	if mapped {
		if fdb.ZeroCopy() {
			fdb.mapped = raw
		} else {
			// The data was bulk-converted (big-endian host); nothing
			// references the mapping anymore.
			munmapFile(raw)
		}
	}
	return fdb, nil
}

// parseFlat decodes a complete flat-format file image. On little-endian
// hosts with 8-byte data alignment the returned FlatDB adopts raw's data
// section in place (CRC deferred to VerifyData); otherwise the data is bulk
// converted and checksummed on the way through.
//
// milret:unguarded construction: the FlatDB is not shared until this
// returns.
func parseFlat(raw []byte) (*FlatDB, error) {
	if len(raw) < flatHeaderLen+4 {
		return nil, fmt.Errorf("%w: file too short for flat header (%d bytes)", ErrCorrupt, len(raw))
	}
	if string(raw[:len(FlatMagic)]) != FlatMagic {
		return nil, fmt.Errorf("store: bad magic %q", raw[:len(FlatMagic)])
	}
	off := len(FlatMagic)
	version := binary.LittleEndian.Uint32(raw[off:])
	dim32 := binary.LittleEndian.Uint32(raw[off+4:])
	nItems32 := binary.LittleEndian.Uint32(raw[off+8:])
	nInstances := binary.LittleEndian.Uint64(raw[off+12:])
	off += 20
	if version != FlatVersion {
		return nil, fmt.Errorf("store: unsupported flat version %d (want %d)", version, FlatVersion)
	}
	dim, nItems := int(dim32), int(nItems32)
	if dim <= 0 || dim > 1<<20 {
		return nil, fmt.Errorf("%w: implausible dimension %d", ErrCorrupt, dim)
	}
	if nItems > maxFlatItems {
		return nil, fmt.Errorf("%w: implausible item count %d", ErrCorrupt, nItems)
	}
	if nInstances > uint64(nItems)*maxInstances {
		return nil, fmt.Errorf("%w: implausible instance count %d", ErrCorrupt, nInstances)
	}
	// Bound the data-block size before trusting the header product:
	// nInstances and dim individually plausible can still multiply to a
	// panic-sized (or int-overflowing) extent.
	if nInstances > (maxFlatDataBytes/8)/uint64(dim) {
		return nil, fmt.Errorf("%w: implausible data block (%d instances × %d dims)",
			ErrCorrupt, nInstances, dim)
	}

	metaLen := int(binary.LittleEndian.Uint32(raw[off:]))
	off += 4
	if metaLen > 1<<30 {
		return nil, fmt.Errorf("%w: implausible meta length %d", ErrCorrupt, metaLen)
	}
	if off+metaLen+4 > len(raw) {
		return nil, fmt.Errorf("%w: truncated meta", ErrCorrupt)
	}
	meta := raw[off : off+metaLen]
	off += metaLen
	metaSum := binary.LittleEndian.Uint32(raw[off:])
	off += 4
	if got := crc32.ChecksumIEEE(meta); got != metaSum {
		return nil, fmt.Errorf("%w: meta checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, metaSum)
	}
	pad := flatPad(off)
	if off+pad > len(raw) {
		return nil, fmt.Errorf("%w: truncated alignment padding", ErrCorrupt)
	}
	for _, b := range raw[off : off+pad] {
		if b != 0 {
			return nil, fmt.Errorf("%w: non-zero alignment padding", ErrCorrupt)
		}
	}
	off += pad

	recs, counts, err := decodeFlatMeta(meta, nItems, nInstances)
	if err != nil {
		return nil, err
	}

	dataOff := off
	nFloats := int(nInstances) * dim
	if len(raw) != dataOff+nFloats*8+4 {
		return nil, fmt.Errorf("%w: file is %d bytes, want %d", ErrCorrupt, len(raw), dataOff+nFloats*8+4)
	}
	dataSum := binary.LittleEndian.Uint32(raw[dataOff+nFloats*8:])

	fdb := &FlatDB{
		Dim:     dim,
		Records: recs,
		Counts:  counts,
		dataOff: dataOff,
		dataSum: dataSum,
	}
	switch {
	case nFloats == 0:
		fdb.verified = true
	case hostLittleEndian() && uintptr(unsafe.Pointer(&raw[dataOff]))%8 == 0:
		// Zero-copy adoption: the file bytes are the float block.
		fdb.Data = unsafe.Slice((*float64)(unsafe.Pointer(&raw[dataOff])), nFloats)
		fdb.raw = raw
	default:
		// Bulk conversion fallback (big-endian host, or an image that does
		// not start on an 8-byte address). The pass touches every byte
		// anyway, so the checksum is verified on the way through.
		if got := crc32.ChecksumIEEE(raw[dataOff : dataOff+nFloats*8]); got != dataSum {
			return nil, fmt.Errorf("%w: data checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, dataSum)
		}
		flat := make([]float64, nFloats)
		for i := range flat {
			flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[dataOff+i*8:]))
		}
		fdb.Data = flat
		fdb.verified = true
	}

	// One arena of instance headers for all bags: O(instances) header
	// writes, zero float copies.
	views := make([]mat.Vector, int(nInstances))
	row := 0
	for i := range recs {
		n := counts[i]
		insts := views[row : row+n : row+n]
		for j := 0; j < n; j++ {
			base := (row + j) * dim
			insts[j] = mat.Vector(fdb.Data[base : base+dim : base+dim])
		}
		recs[i].Bag.Instances = insts
		row += n
	}
	return fdb, nil
}

// decodeFlatMeta parses the meta payload into records (bags still without
// instances) and per-record instance counts.
func decodeFlatMeta(meta []byte, nItems int, nInstances uint64) ([]Record, []int, error) {
	off := 0
	need := func(n int) error {
		if off+n > len(meta) {
			return fmt.Errorf("%w: meta underrun at offset %d", ErrCorrupt, off)
		}
		return nil
	}
	readString16 := func() (string, error) {
		if err := need(2); err != nil {
			return "", err
		}
		n := int(binary.LittleEndian.Uint16(meta[off:]))
		off += 2
		if err := need(n); err != nil {
			return "", err
		}
		s := string(meta[off : off+n])
		off += n
		return s, nil
	}

	recs := make([]Record, nItems)
	counts := make([]int, nItems)
	var total uint64
	for i := 0; i < nItems; i++ {
		id, err := readString16()
		if err != nil {
			return nil, nil, err
		}
		label, err := readString16()
		if err != nil {
			return nil, nil, err
		}
		if err := need(5); err != nil {
			return nil, nil, err
		}
		nInst := int(binary.LittleEndian.Uint32(meta[off:]))
		off += 4
		hasNames := meta[off]
		off++
		if nInst <= 0 || nInst > maxInstances {
			return nil, nil, fmt.Errorf("%w: implausible instance count %d", ErrCorrupt, nInst)
		}
		bag := &mil.Bag{ID: id}
		if hasNames == 1 {
			bag.Names = make([]string, nInst)
			for j := 0; j < nInst; j++ {
				if bag.Names[j], err = readString16(); err != nil {
					return nil, nil, err
				}
			}
		}
		recs[i] = Record{ID: id, Label: label, Bag: bag}
		counts[i] = nInst
		total += uint64(nInst)
	}
	if off != len(meta) {
		return nil, nil, fmt.Errorf("%w: %d trailing meta bytes", ErrCorrupt, len(meta)-off)
	}
	if total != nInstances {
		return nil, nil, fmt.Errorf("%w: meta instance total %d, header says %d", ErrCorrupt, total, nInstances)
	}
	return recs, counts, nil
}
