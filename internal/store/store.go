// Package store is the on-disk form of a database: preprocessed image bags
// persisted once and queried many times — the paper's system likewise
// preprocesses every image up front (§3.5).
//
// A store is made of four file kinds, one generation each (all integers
// little-endian, every section CRC-32 checksummed):
//
//	MILRETX1  flat columnar snapshot of one shard             flat.go
//	MILRETW1  mutation log beside a snapshot ("<snap>.wal")   wal.go
//	MILRETS1  manifest naming a sharded store's snapshots     manifest.go
//	MILRETC1  advisory concept-cache sidecar                  cachesidecar.go
//
// Journal (journal.go) is the one owner of a store: the only code that
// knows which files make one up, the order they change in, how a log is
// bound to its snapshot, when a shard folds, and what an acknowledged
// commit means. Everything else in the package is a byte format.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"milret/internal/mat"
	"milret/internal/mil"
)

// maxInstances bounds a record's instance count as a corruption backstop:
// no legitimate bag generated by this system exceeds a few hundred
// instances.
const maxInstances = 1 << 16

// ErrCorrupt is wrapped by all integrity-failure errors.
var ErrCorrupt = errors.New("store: corrupt record")

// Record is one stored image: its bag plus the evaluation label (category).
type Record struct {
	// ID is the image identifier (must be unique per store by convention).
	ID string
	// Label is the ground-truth category used by the evaluation protocol.
	Label string
	// Bag holds the image's feature vectors.
	Bag *mil.Bag
}

// encodeRecordPayload serializes one record into the payload layout of the
// log's add/update frames (id, label, instance count, per-instance names,
// instance floats; spec in wal.go).
func encodeRecordPayload(rec Record, dim int) ([]byte, error) {
	if rec.Bag == nil {
		return nil, fmt.Errorf("store: record %q has nil bag", rec.ID)
	}
	if err := rec.Bag.Validate(); err != nil {
		return nil, err
	}
	if rec.Bag.Dim() != dim {
		return nil, fmt.Errorf("store: record %q dim %d, store dim %d", rec.ID, rec.Bag.Dim(), dim)
	}
	if len(rec.ID) > math.MaxUint16 || len(rec.Label) > math.MaxUint16 {
		return nil, fmt.Errorf("store: record %q: id/label too long", rec.ID)
	}

	payload := make([]byte, 0, 8+len(rec.ID)+len(rec.Label)+len(rec.Bag.Instances)*(dim*8+16))
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(rec.ID)))
	payload = append(payload, rec.ID...)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(rec.Label)))
	payload = append(payload, rec.Label...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rec.Bag.Instances)))
	for j := range rec.Bag.Instances {
		name := ""
		if rec.Bag.Names != nil {
			name = rec.Bag.Names[j]
		}
		if len(name) > math.MaxUint16 {
			return nil, fmt.Errorf("store: record %q: instance name too long", rec.ID)
		}
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(name)))
		payload = append(payload, name...)
	}
	for _, inst := range rec.Bag.Instances {
		for _, v := range inst {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
		}
	}
	return payload, nil
}

// decodeRecordPayload parses one record payload (see encodeRecordPayload).
func decodeRecordPayload(payload []byte, dim int) (Record, error) {
	off := 0
	need := func(n int) error {
		if off+n > len(payload) {
			return fmt.Errorf("%w: payload underrun at offset %d", ErrCorrupt, off)
		}
		return nil
	}
	if err := need(2); err != nil {
		return Record{}, err
	}
	idLen := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	if err := need(idLen); err != nil {
		return Record{}, err
	}
	id := string(payload[off : off+idLen])
	off += idLen
	if err := need(2); err != nil {
		return Record{}, err
	}
	labelLen := int(binary.LittleEndian.Uint16(payload[off:]))
	off += 2
	if err := need(labelLen); err != nil {
		return Record{}, err
	}
	label := string(payload[off : off+labelLen])
	off += labelLen
	if err := need(4); err != nil {
		return Record{}, err
	}
	nInst := int(binary.LittleEndian.Uint32(payload[off:]))
	off += 4
	if nInst <= 0 || nInst > maxInstances {
		return Record{}, fmt.Errorf("%w: implausible instance count %d", ErrCorrupt, nInst)
	}
	names := make([]string, nInst)
	anyName := false
	for i := 0; i < nInst; i++ {
		if err := need(2); err != nil {
			return Record{}, err
		}
		nameLen := int(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if err := need(nameLen); err != nil {
			return Record{}, err
		}
		names[i] = string(payload[off : off+nameLen])
		off += nameLen
		if nameLen > 0 {
			anyName = true
		}
	}
	want := nInst * dim * 8
	if len(payload)-off != want {
		return Record{}, fmt.Errorf("%w: instance block is %d bytes, want %d", ErrCorrupt, len(payload)-off, want)
	}
	bag := &mil.Bag{ID: id}
	for i := 0; i < nInst; i++ {
		v := mat.NewVector(dim)
		for k := 0; k < dim; k++ {
			v[k] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
		bag.Instances = append(bag.Instances, v)
	}
	if anyName {
		bag.Names = names
	}
	return Record{ID: id, Label: label, Bag: bag}, nil
}

// syncDir flushes a directory's entry table so a just-created, renamed or
// removed file name survives power loss — the second half of the
// write-fsync-rename-fsync durability dance. Best effort: some platforms
// (notably Windows) cannot fsync a directory, and the file-content sync is
// the hard requirement.
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
