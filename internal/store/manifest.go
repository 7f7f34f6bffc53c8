// The sharded-store manifest (MILRETS1). A sharded database persists as one
// small manifest file plus one flat snapshot (and optionally one mutation
// log) per shard: the manifest records how many shards there are and which
// files carry them, and each shard file is an ordinary single-shard store —
// a MILRETX1 flat snapshot with a MILRETW1 log alongside it (at
// "<shard>.wal"), exactly the pair a 1-shard database writes. That layering
// keeps every per-shard durability property (atomic snapshot rewrite, torn
// WAL tails, stale-log fingerprints) identical between sharded and
// single-file databases, because it is literally the same code path run N
// times.
//
// File layout (all integers little-endian):
//
//	magic "MILRETS1" | uint32 version | uint32 nShards |
//	nShards × (uint16 nameLen | name) | uint32 crc32
//
// The CRC covers everything between the magic and the checksum. Shard names
// are stored as bare file names (no directory separators) and resolved
// relative to the manifest's directory, so a database directory can be
// moved or copied wholesale.
//
// Crash safety across files: a sharded save writes every shard snapshot
// first and the manifest last (each via the store's atomic
// temp-fsync-rename), so a manifest that exists always references shard
// files that exist. Shard folds rewrite one shard file in place under the
// same name and never touch the manifest.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// ManifestMagic identifies sharded-store manifest files.
const ManifestMagic = "MILRETS1"

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

// maxManifestShards bounds the shard count as a corruption backstop.
const maxManifestShards = 1 << 12

// ShardPath returns the canonical snapshot path for shard i of the sharded
// store rooted at the manifest path.
func ShardPath(manifestPath string, i int) string {
	return fmt.Sprintf("%s.shard%d", manifestPath, i)
}

// WriteManifest writes a MILRETS1 manifest at path referencing the given
// shard files, atomically and durably (temp file, fsync, rename, directory
// fsync). Each entry must be a bare file name in the manifest's own
// directory.
func WriteManifest(path string, shardNames []string) error {
	if len(shardNames) == 0 {
		return fmt.Errorf("store: manifest with no shards")
	}
	if len(shardNames) > maxManifestShards {
		return fmt.Errorf("store: manifest with %d shards exceeds %d", len(shardNames), maxManifestShards)
	}
	body := make([]byte, 0, 8+16*len(shardNames))
	body = binary.LittleEndian.AppendUint32(body, ManifestVersion)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(shardNames)))
	for _, name := range shardNames {
		if name == "" || strings.ContainsAny(name, `/\`) || name != filepath.Base(name) {
			return fmt.Errorf("store: manifest shard name %q is not a bare file name", name)
		}
		if len(name) > 1<<16-1 {
			return fmt.Errorf("store: manifest shard name too long")
		}
		body = binary.LittleEndian.AppendUint16(body, uint16(len(name)))
		body = append(body, name...)
	}
	buf := make([]byte, 0, len(ManifestMagic)+len(body)+4)
	buf = append(buf, ManifestMagic...)
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))

	return atomicWriteFile(path, ".milret-manifest-*", func(tmp *os.File) error {
		_, err := tmp.Write(buf)
		return err
	})
}

// ReadManifest loads a MILRETS1 manifest and returns the shard snapshot
// paths it references, resolved relative to the manifest's directory, in
// shard order.
func ReadManifest(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(ManifestMagic)+8+4 {
		return nil, fmt.Errorf("%w: file too short for manifest (%d bytes)", ErrCorrupt, len(raw))
	}
	if string(raw[:len(ManifestMagic)]) != ManifestMagic {
		return nil, fmt.Errorf("store: bad manifest magic %q", raw[:len(ManifestMagic)])
	}
	body := raw[len(ManifestMagic) : len(raw)-4]
	sum := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("%w: manifest checksum mismatch (got %08x, want %08x)", ErrCorrupt, got, sum)
	}
	version := binary.LittleEndian.Uint32(body)
	if version != ManifestVersion {
		return nil, fmt.Errorf("store: unsupported manifest version %d (want %d)", version, ManifestVersion)
	}
	nShards := int(binary.LittleEndian.Uint32(body[4:]))
	if nShards <= 0 || nShards > maxManifestShards {
		return nil, fmt.Errorf("%w: implausible manifest shard count %d", ErrCorrupt, nShards)
	}
	dir := filepath.Dir(path)
	paths := make([]string, nShards)
	off := 8
	for i := 0; i < nShards; i++ {
		if off+2 > len(body) {
			return nil, fmt.Errorf("%w: manifest underrun at shard %d", ErrCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint16(body[off:]))
		off += 2
		if off+n > len(body) {
			return nil, fmt.Errorf("%w: manifest underrun at shard %d name", ErrCorrupt, i)
		}
		name := string(body[off : off+n])
		off += n
		if name == "" || name != filepath.Base(name) {
			return nil, fmt.Errorf("%w: manifest shard name %q is not a bare file name", ErrCorrupt, name)
		}
		paths[i] = filepath.Join(dir, name)
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing manifest bytes", ErrCorrupt, len(body)-off)
	}
	return paths, nil
}

// IsManifest reports whether the file at path starts with the sharded-store
// manifest magic.
func IsManifest(path string) (bool, error) {
	magic, err := readMagic(path)
	return magic == ManifestMagic, err
}
