// Package retrieval ranks an image database against a trained concept
// (§3.5): each image's distance is the minimum over its bag's instances of
// the weighted Euclidean distance to the concept point, and images are
// retrieved in ascending distance order.
//
// The scan engine is the flat columnar one in internal/index: Add maintains
// a contiguous row-major block of all bag instances alongside the item
// slice, and every Rank/TopK/TopKMany is "take the Scorer's point/weight
// geometry, snapshot the shards, scan the snapshot there". This package owns
// the items, the sharding and the mutation lifecycle, not a scan of its own.
//
// The database is sharded: it holds N independent shards (N fixed at
// construction, 1 by default), each owning its own flat block, tombstone
// mask and lock, with items placed by a hash of their ID. A scan cuts every
// shard's bags into chunks on one claim list, its workers share a single
// atomic top-k cutoff, and their heaps are merged (index.Sharded), so
// results are bit-identical to a 1-shard database over the same bags while
// mutations, snapshots and compaction stay confined to one shard's lock —
// compacting or appending in one shard never blocks the others.
//
// The database is mutable: Delete tombstones an item (scans skip it from
// the next query on), Update swaps in a new bag/label atomically,
// UpdateLabel swaps the label alone without touching the flat block, and
// Compact — triggered automatically per shard once its dead rows pass a
// threshold — rebuilds only that shard's block without the tombstones. A
// ranking over a database with tombstones is bit-identical to one over a
// database rebuilt from the live items alone.
package retrieval

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"milret/internal/index"
	"milret/internal/mil"
)

// Scorer is a learned concept's geometry: the point and per-dimension weights
// of the weighted squared distance dist(x) = Σ_k w_k (p_k − x_k)², minimized
// over a bag's instances; lower is a better match. core.Concept implements
// it.
type Scorer interface {
	// PointWeights returns the concept point and per-dimension weights.
	// The returned slices are read-only aliases; callers must not mutate.
	PointWeights() (point, weights []float64)
}

// Item is one database entry: a preprocessed image bag plus its evaluation
// label.
type Item struct {
	ID    string
	Label string
	Bag   *mil.Bag
}

// shard is one independently locked slice of the database: its own item
// slots, ID map and flat scoring index. All state for an item lives in
// exactly one shard (chosen by hashing its ID), so a mutation takes exactly
// one shard lock and a compaction rebuilds exactly one flat block while the
// other shards keep serving reads and writes.
type shard struct {
	mu sync.RWMutex
	// milret:guarded-by mu
	items []Item // parallel to index slots; tombstoned slots stay in place
	// milret:guarded-by mu
	seqs []uint64 // global insertion sequence per slot (orders Items/Get)
	// milret:guarded-by mu
	byID map[string]int
	// milret:guarded-by mu
	idx *index.Index
}

// Database is a collection of items sharded across N independently locked
// shards, safe for concurrent reads and writes. Each shard maintains its
// flat scoring index incrementally: Add appends the bag's instances to its
// shard's columnar block in place, so queries issued after Add returns see
// the new item without any rebuild; Delete tombstones the item in its shard
// so queries skip it immediately, and Update is a delete of the old version
// plus an append of the new one. Once a shard's tombstoned rows outgrow
// compactFraction of its block, that shard compacts itself (see Compact)
// without blocking the others.
type Database struct {
	shards []*shard
	// dim is the feature dimensionality, fixed by the first Add (0 while
	// empty); atomic so scans read it without any shard lock.
	dim atomic.Int64
	// seq numbers insertions globally so Items/Get present one insertion
	// order across shards.
	seq atomic.Uint64
	// prune accumulates the scan and candidate-filter counters across every
	// top-k scan against this database (internally atomic; scan
	// workers flush into it without any shard lock).
	prune index.PruneStats
}

// Compaction policy: rebuilding a shard's flat block costs one pass over its
// live instances, so it is deferred until the dead rows are a meaningful
// fraction of a meaningful block. Mutation-heavy small shards stay
// un-compacted (rebuilds there are cheap anyway and Compact can always be
// called explicitly).
const (
	// compactFraction is the dead-instance share of a shard's flat block
	// above which Delete/Update trigger an automatic compact of that shard.
	compactFraction = 0.25
	// compactMinDeadRows is the minimum number of dead instance rows in a
	// shard before automatic compaction is considered at all.
	compactMinDeadRows = 4096
)

// NewDatabase returns an empty single-shard database.
func NewDatabase() *Database { return NewDatabaseSharded(1) }

// NewDatabaseSharded returns an empty database with nShards independent
// shards (values below 1 are treated as 1). The shard count is fixed for the
// database's lifetime: items are placed by a hash of their ID, so the count
// determines placement. Rankings are independent of the shard count —
// sharded scans are bit-identical to a 1-shard database over the same bags —
// it only sets how many flat blocks the data is spread over, and thus the
// granularity of locking, compaction and persistence.
func NewDatabaseSharded(nShards int) *Database {
	if nShards < 1 {
		nShards = 1
	}
	db := &Database{shards: make([]*shard, nShards)}
	for i := range db.shards {
		db.shards[i] = &shard{byID: make(map[string]int), idx: index.New()}
	}
	return db
}

// ShardCount returns the number of shards (≥ 1).
func (db *Database) ShardCount() int { return len(db.shards) }

// ShardIndexFor returns the shard an ID hashes to among n shards. It is
// THE placement function: in-process shard routing, per-shard WAL
// routing, the resharding tool, and the distribution coordinator's
// mutation/fetch routing must all agree on it, so it is exported rather
// than re-derived. Changing it invalidates every multi-shard store.
func ShardIndexFor(id string, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(n))
}

// ShardFor returns the index of the shard that holds (or would hold) the
// given item ID — the placement function, exposed so persistence can route
// per-shard mutation logs the same way the database routes mutations.
func (db *Database) ShardFor(id string) int { return ShardIndexFor(id, len(db.shards)) }

func (db *Database) shardFor(id string) *shard { return db.shards[db.ShardFor(id)] }

// ensureDim fixes the database dimensionality on first use; it reports
// false when d conflicts with an already-fixed dimensionality.
func (db *Database) ensureDim(d int) bool {
	for {
		cur := db.dim.Load()
		if cur == int64(d) {
			return true
		}
		if cur != 0 {
			return false
		}
		if db.dim.CompareAndSwap(0, int64(d)) {
			return true
		}
	}
}

// FlatShard is one shard's content for NewDatabaseFromFlats: the decoded
// items plus the row-major instance block their bags view into.
type FlatShard struct {
	Items []Item
	Data  []float64
}

// NewDatabaseFromFlat constructs a single-shard database whose scoring index
// adopts the given row-major instance block instead of re-copying every bag
// — the zero-copy open path. items[i].Bag's instances must be, in order,
// views into data (the store's flat loader guarantees this); construction
// validates O(items) metadata, decodes and copies no float, and reads the
// block once, in the index's sketch pass. Nothing writes to the block: later
// Adds and Updates append to a heap tail beside it, so a write after the
// open copies the bag it writes, not the block, and scans rank exactly as on
// an incrementally built database. A compaction replaces the block with one
// pre-sized heap block of the live rows.
func NewDatabaseFromFlat(items []Item, dim int, data []float64) (*Database, error) {
	return NewDatabaseFromFlats([]FlatShard{{Items: items, Data: data}}, dim)
}

// NewDatabaseFromFlats constructs a database with one shard per entry, each
// shard adopting its own flat block zero-copy and appending to its own heap
// tail (see NewDatabaseFromFlat). Every item must hash to the shard that
// carries it — the placement invariant Save preserves when it writes one
// snapshot per shard — so that lookups and mutation routing find it again.
//
// milret:unguarded construction: the shards are not visible to any other
// goroutine until this returns.
func NewDatabaseFromFlats(flats []FlatShard, dim int) (*Database, error) {
	db := NewDatabaseSharded(len(flats))
	nItems := 0
	for _, fs := range flats {
		nItems += len(fs.Items)
	}
	if nItems == 0 {
		for si, fs := range flats {
			if len(fs.Data) != 0 {
				return nil, fmt.Errorf("retrieval: shard %d adopts %d floats with no items", si, len(fs.Data))
			}
		}
		return db, nil
	}
	for si, fs := range flats {
		sh := db.shards[si]
		counts := make([]int, len(fs.Items))
		ids := make([]string, len(fs.Items))
		labels := make([]string, len(fs.Items))
		for i, it := range fs.Items {
			if it.Bag == nil {
				return nil, fmt.Errorf("retrieval: item %q has nil bag", it.ID)
			}
			if d := it.Bag.Dim(); d != dim {
				return nil, fmt.Errorf("retrieval: item %q dim %d, database dim %d", it.ID, d, dim)
			}
			if home := db.ShardFor(it.ID); home != si {
				return nil, fmt.Errorf("retrieval: shard %d carries item %q, which hashes to shard %d of %d",
					si, it.ID, home, len(flats))
			}
			if _, dup := sh.byID[it.ID]; dup {
				return nil, fmt.Errorf("retrieval: duplicate item ID %q", it.ID)
			}
			sh.byID[it.ID] = i
			counts[i] = len(it.Bag.Instances)
			ids[i] = it.ID
			labels[i] = it.Label
		}
		idx, err := index.FromFlat(dim, fs.Data, counts, ids, labels)
		if err != nil {
			return nil, err
		}
		sh.items = append(sh.items, fs.Items...)
		sh.seqs = make([]uint64, len(fs.Items))
		for i := range sh.seqs {
			sh.seqs[i] = db.seq.Add(1)
		}
		sh.idx = idx
	}
	db.dim.Store(int64(dim))
	return db, nil
}

// Add appends an item. The first item fixes the feature dimensionality;
// later items must match it, and IDs must be unique.
func (db *Database) Add(item Item) error {
	if item.Bag == nil {
		return fmt.Errorf("retrieval: item %q has nil bag", item.ID)
	}
	if err := item.Bag.Validate(); err != nil {
		return err
	}
	sh := db.shardFor(item.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.byID[item.ID]; dup {
		return fmt.Errorf("retrieval: duplicate item ID %q", item.ID)
	}
	if !db.ensureDim(item.Bag.Dim()) {
		return fmt.Errorf("retrieval: item %q dim %d, database dim %d", item.ID, item.Bag.Dim(), db.Dim())
	}
	if err := sh.idx.Append(item.ID, item.Label, item.Bag.Instances); err != nil {
		return err
	}
	sh.byID[item.ID] = len(sh.items)
	sh.items = append(sh.items, item)
	sh.seqs = append(sh.seqs, db.seq.Add(1))
	return nil
}

// Delete removes the item with the given ID. The removal is a tombstone:
// queries issued after Delete returns no longer see the item, its ID is
// immediately reusable by Add, and the instance rows linger in its shard's
// flat block until enough dead weight accumulates to trigger a compact of
// that shard.
func (db *Database) Delete(id string) error {
	sh := db.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.byID[id]
	if !ok {
		return fmt.Errorf("retrieval: delete of unknown item ID %q", id)
	}
	if err := sh.idx.Delete(i); err != nil {
		return err
	}
	delete(sh.byID, id)
	sh.maybeCompactLocked()
	return nil
}

// Update replaces the stored item carrying item.ID with the given bag and
// label. It is a tombstone of the old version plus an append of the new one,
// so concurrent queries see either the old or the new version, never both
// and never neither.
func (db *Database) Update(item Item) error {
	if item.Bag == nil {
		return fmt.Errorf("retrieval: item %q has nil bag", item.ID)
	}
	if err := item.Bag.Validate(); err != nil {
		return err
	}
	sh := db.shardFor(item.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.byID[item.ID]
	if !ok {
		return fmt.Errorf("retrieval: update of unknown item ID %q", item.ID)
	}
	if dim := db.dim.Load(); item.Bag.Dim() != int(dim) {
		return fmt.Errorf("retrieval: item %q dim %d, database dim %d", item.ID, item.Bag.Dim(), dim)
	}
	if err := sh.idx.Append(item.ID, item.Label, item.Bag.Instances); err != nil {
		return err
	}
	// The append cannot fail after validation, and Delete of a live in-range
	// slot cannot fail either — the two-step swap is effectively atomic under
	// the shard's write lock.
	if err := sh.idx.Delete(i); err != nil {
		return err
	}
	sh.byID[item.ID] = len(sh.items)
	sh.items = append(sh.items, item)
	sh.seqs = append(sh.seqs, db.seq.Add(1))
	sh.maybeCompactLocked()
	return nil
}

// UpdateLabel swaps the label stored with an item without touching its bag —
// the metadata-only counterpart of Update: no instance rows move, no
// tombstone accumulates, no compaction debt, and the storage cost is
// constant (a label-only journal record). Queries issued after UpdateLabel
// returns report the new label; in-flight queries report the old one — the
// index's label column is copy-on-write against live scan views, so the
// first label update after a query re-clones the shard's label column
// (O(bags in shard) header copies, amortized to O(1) across a batch of
// updates between queries).
func (db *Database) UpdateLabel(id, label string) error {
	sh := db.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.byID[id]
	if !ok {
		return fmt.Errorf("retrieval: label update of unknown item ID %q", id)
	}
	if err := sh.idx.UpdateLabel(i, label); err != nil {
		return err
	}
	sh.items[i].Label = label
	return nil
}

// Compact rebuilds every shard's flat scoring index from its live items,
// reclaiming the rows tombstoned by Delete/Update. Each shard is rebuilt
// under its own lock, one at a time, so the database keeps serving: scans
// and mutations proceed on every shard but the one mid-rebuild. Snapshots
// taken before the compact keep scanning the old (immutable) blocks; queries
// issued afterwards scan the fresh ones. Rankings are unaffected: compaction
// preserves the live items and their insertion order.
func (db *Database) Compact() {
	for _, sh := range db.shards {
		sh.mu.Lock()
		sh.compactLocked()
		sh.mu.Unlock()
	}
}

func (sh *shard) maybeCompactLocked() {
	deadRows := sh.idx.DeadInstances()
	if deadRows < compactMinDeadRows {
		return
	}
	if float64(deadRows) < compactFraction*float64(sh.idx.Instances()) {
		return
	}
	sh.compactLocked()
}

// compactLocked rebuilds the shard's index from its live items: it counts
// their rows, copies them once into one block of exactly that size and hands
// the block to index.FromFlat, whose sketch pass runs over every CPU.
func (sh *shard) compactLocked() {
	if sh.idx.Dead() == 0 {
		return
	}
	live := sh.idx.Live()
	items := make([]Item, 0, live)
	seqs := make([]uint64, 0, live)
	byID := make(map[string]int, live)
	counts := make([]int, 0, live)
	ids := make([]string, 0, live)
	labels := make([]string, 0, live)
	rows, dim := 0, 0
	for i, it := range sh.items {
		if sh.idx.IsDead(i) {
			continue
		}
		byID[it.ID] = len(items)
		items = append(items, it)
		seqs = append(seqs, sh.seqs[i])
		counts = append(counts, len(it.Bag.Instances))
		ids = append(ids, it.ID)
		labels = append(labels, it.Label)
		rows += len(it.Bag.Instances)
		dim = it.Bag.Dim()
	}
	data := make([]float64, 0, rows*dim)
	for _, it := range items {
		for _, inst := range it.Bag.Instances {
			data = append(data, inst...)
		}
	}
	idx, err := index.FromFlat(dim, data, counts, ids, labels)
	if err != nil {
		// Every live item was validated on its way in; a failure here is a
		// programming error, not a recoverable condition.
		panic(fmt.Sprintf("retrieval: compact rebuild: %v", err))
	}
	sh.items = items
	sh.seqs = seqs
	sh.byID = byID
	sh.idx = idx
}

// Len returns the number of live items.
func (db *Database) Len() int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		n += sh.idx.Live()
		sh.mu.RUnlock()
	}
	return n
}

// Dim returns the feature dimensionality (0 while empty).
func (db *Database) Dim() int { return int(db.dim.Load()) }

// liveOrdered collects the live items of every shard tagged with their
// insertion sequence and returns them in global insertion order.
func (db *Database) liveOrdered() []Item {
	type tagged struct {
		seq  uint64
		item Item
	}
	var all []tagged
	for _, sh := range db.shards {
		sh.mu.RLock()
		for i, it := range sh.items {
			if sh.idx.IsDead(i) {
				continue
			}
			all = append(all, tagged{sh.seqs[i], it})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]Item, len(all))
	for i, tg := range all {
		out[i] = tg.item
	}
	return out
}

// ByID returns the item with the given ID.
func (db *Database) ByID(id string) (Item, bool) {
	sh := db.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	i, ok := sh.byID[id]
	if !ok {
		return Item{}, false
	}
	return sh.items[i], true
}

// Items returns a snapshot copy of the live items in insertion order.
func (db *Database) Items() []Item { return db.liveOrdered() }

// ShardItems returns a snapshot copy of shard i's live items in that shard's
// insertion order — the per-shard slice persistence snapshots.
func (db *Database) ShardItems(i int) []Item {
	sh := db.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]Item, 0, sh.idx.Live())
	for j, it := range sh.items {
		if sh.idx.IsDead(j) {
			continue
		}
		out = append(out, it)
	}
	return out
}

// snapshot returns a consistent scan view of every shard's flat index. Each
// shard's view stays immutable under concurrent Adds (appends only write
// past its lengths) and Deletes (the tombstone mask is copied); the shards
// are snapshotted one lock at a time, so a scan sees each individual
// mutation atomically (a mutation touches exactly one shard) even though two
// mutations on different shards may straddle the snapshot.
func (db *Database) snapshot() index.Sharded {
	view := make(index.Sharded, len(db.shards))
	for i, sh := range db.shards {
		sh.mu.RLock()
		view[i] = sh.idx.Snapshot()
		sh.mu.RUnlock()
	}
	return view
}

// LiveStats counts what a scan ranks: bags not tombstoned and their
// instance rows.
type LiveStats struct {
	Images    int `json:"images"`
	Instances int `json:"instances"`
}

// BlockStats weighs a flat instance block: its size in bytes, dead rows
// included, and the tombstoned bags and rows still occupying it — what the
// next compaction reclaims.
type BlockStats struct {
	IndexBytes    int64 `json:"index_bytes"`
	DeadImages    int   `json:"dead_images,omitempty"`
	DeadInstances int   `json:"dead_instances,omitempty"`
}

// ShardStats is one shard's flat scoring index in the stats tree. It is two
// halves because /v1/stats reports the same columns as totals with the
// dimensionality between them.
type ShardStats struct {
	LiveStats
	BlockStats
}

// ShardStats reports the size of every shard's flat scoring index.
func (db *Database) ShardStats() []ShardStats {
	rows := make([]ShardStats, len(db.shards))
	for i, sh := range db.shards {
		sh.mu.RLock()
		rows[i] = ShardStats{
			LiveStats{
				Images:    sh.idx.Live(),
				Instances: sh.idx.Instances() - sh.idx.DeadInstances(),
			},
			BlockStats{
				IndexBytes:    sh.idx.Bytes(),
				DeadImages:    sh.idx.Dead(),
				DeadInstances: sh.idx.DeadInstances(),
			},
		}
		sh.mu.RUnlock()
	}
	return rows
}

// PruneStats snapshots the scan and candidate-filter counters of every
// top-k scan against this database.
func (db *Database) PruneStats() index.PruneSnapshot { return db.prune.Snapshot() }

// Result is one ranked database entry: the item's ID and label plus Dist,
// the bag-to-concept distance (weighted, squared). It is an alias of
// index.Result so scans return their results without a per-query
// O(n) conversion copy.
type Result = index.Result

// Options tunes a ranking scan.
type Options struct {
	// Exclude drops the listed image IDs from the ranking (the training
	// examples are excluded when mining false positives, §4.1).
	Exclude map[string]bool
	// Parallelism bounds scan goroutines; 0 means runtime.NumCPU().
	Parallelism int
	// CutoffSeed, when positive, pre-tightens the top-k cutoff before the
	// scan starts. The caller asserts it upper-bounds the global k-th best
	// distance of the whole logical query; a stale (too-loose) seed only
	// weakens pruning. TopK only.
	CutoffSeed float64
}

// query extracts the scan geometry from a scorer. Its dimensionality is the
// caller's to validate at whatever edge the concept arrived through; a
// mismatch that gets this far panics in internal/index on the caller's own
// goroutine, before any scan worker starts.
func query(s Scorer) index.Query {
	p, w := s.PointWeights()
	return index.Query{Point: p, Weights: w}
}

// Rank scores every non-excluded item and returns the full ascending
// ranking. Ties are broken by ID so rankings are deterministic.
func Rank(db *Database, s Scorer, opts Options) []Result {
	return db.snapshot().Rank(query(s), opts.Exclude, opts.Parallelism)
}

// TopK returns the k best matches in ascending distance order without
// sorting the whole database: the shards' scan workers share one atomic
// cutoff and fuse size-k heaps (index.Sharded), so the full distance slice
// is never materialized. For k ≥ database size it equals Rank.
func TopK(db *Database, s Scorer, k int, opts Options) []Result {
	return db.snapshot().TopKPruned(query(s), k, opts.Exclude, opts.Parallelism, index.PruneOpts{
		Stats:      &db.prune,
		CutoffSeed: opts.CutoffSeed,
	})
}

// TopKMany returns, for each scorer, its k best matches in ascending
// distance order. Element i equals TopK(db, scorers[i], k, opts) exactly: a
// batch is single scans over one pinned snapshot set, scheduled across
// queries before within them (index.Sharded.MultiTopKPruned).
func TopKMany(db *Database, scorers []Scorer, k int, opts Options) [][]Result {
	qs := make([]index.Query, len(scorers))
	for i, s := range scorers {
		qs[i] = query(s)
	}
	return db.snapshot().MultiTopKPruned(qs, k, opts.Exclude, opts.Parallelism,
		index.PruneOpts{Stats: &db.prune})
}
