package milret

import (
	"fmt"
	"path/filepath"

	"milret/internal/retrieval"
	"milret/internal/store"
)

// Reshard rewrites the store at srcPath into dstPath with a new shard
// count: every live record is re-placed by the one hash placement
// function (retrieval.ShardIndexFor) over the new count and streamed
// into fresh flat shard snapshots, plus a fresh MILRETS1 manifest when
// shards > 1 (a single shard writes one flat file, loadable directly).
// The source is opened read-only through the normal load path, so
// pending mutation logs are replayed and tombstones dropped — the
// output is born compact, with no WALs: a log an earlier store left
// beside an overwritten destination snapshot is removed, and failing to
// remove it fails the reshard. Scan results are preserved
// bit-for-bit: instance floats are copied as raw bits, rankings order
// by (distance, ID) independent of placement, and per-shard insertion
// order follows global insertion order (property-tested in
// reshard_test.go).
//
// Reshard is offline with respect to the source: run it against a
// snapshot no writer currently owns (stop the server or Save first —
// see docs/OPERATIONS.md for the rolling procedure). dstPath must not
// equal srcPath.
func Reshard(srcPath, dstPath string, shards int) error {
	if shards < 1 {
		return fmt.Errorf("milret: reshard: shard count %d < 1", shards)
	}
	sa, _ := filepath.Abs(srcPath)
	da, _ := filepath.Abs(dstPath)
	if sa == da {
		return fmt.Errorf("milret: reshard: source and destination are the same path %q", srcPath)
	}
	// Verify up front: silently re-placing a corrupt block would launder
	// the damage into a fresh checksum.
	d, err := LoadDatabase(srcPath, Options{VerifyOnLoad: true})
	if err != nil {
		return fmt.Errorf("milret: reshard: open source: %w", err)
	}
	defer d.Close()
	items := d.db.Items()
	dim := d.db.Dim()
	if len(items) == 0 {
		return fmt.Errorf("milret: reshard: source %q holds no live images", srcPath)
	}
	groups := make([][]store.Record, shards)
	for _, it := range items {
		si := retrieval.ShardIndexFor(it.ID, shards)
		groups[si] = append(groups[si], store.Record{ID: it.ID, Label: it.Label, Bag: it.Bag})
	}
	if err := store.Create(dstPath, dim, groups); err != nil {
		return fmt.Errorf("milret: reshard: %w", err)
	}
	return nil
}
