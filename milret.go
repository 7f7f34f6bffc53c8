// Package milret is a content-based image retrieval library built on
// multiple-instance learning, reproducing "Image Database Retrieval with
// Multiple-Instance Learning Techniques" (Yang & Lozano-Pérez, ICDE 2000).
//
// Every image added to a Database is decomposed into overlapping regions;
// each region and its left-right mirror is smoothed and sampled into a
// standardized feature vector, and the collection forms the image's bag.
// Training on user-chosen positive and negative example images runs the
// Diverse Density algorithm, which finds an "ideal" feature point and
// per-dimension weights; retrieval ranks the database by each image's
// minimum weighted distance to that point.
//
// Basic usage:
//
//	db, _ := milret.NewDatabase(milret.Options{})
//	for _, img := range pictures {
//		db.AddImage(img.ID, img.Category, img.Image)
//	}
//	concept, _ := db.Train([]string{"pos1", "pos2"}, []string{"neg1"}, milret.TrainOptions{})
//	for _, hit := range db.Retrieve(concept, 20) {
//		fmt.Println(hit.ID, hit.Distance)
//	}
//
// Unsatisfying results are refined by adding the offending images as
// negatives (or missed images as positives) and training again — the
// relevance-feedback loop of the paper's §3.5.
package milret

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"math"
	"sort"
	"sync"

	"milret/internal/core"
	"milret/internal/eval"
	"milret/internal/feature"
	"milret/internal/gray"
	"milret/internal/index"
	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/optimize"
	"milret/internal/qcache"
	"milret/internal/region"
	"milret/internal/retrieval"
	"milret/internal/store"
)

// WeightMode selects how Diverse Density treats the feature weights during
// training (§3.6 of the paper).
type WeightMode int

const (
	// Original is the unmodified Diverse Density algorithm: weights are
	// free, which tends to zero most of them when negatives are scarce.
	Original WeightMode = iota
	// IdenticalWeights pins every weight to one and learns the concept
	// point only.
	IdenticalWeights
	// 2 was the α-hack, which divided the weight gradient by α. It stays
	// unassigned so ConstrainedWeights keeps its number.
	_
	// ConstrainedWeights keeps weights in [0,1] with their sum at least
	// Beta times the dimensionality — the paper's best-performing scheme
	// on natural scenes.
	ConstrainedWeights
)

// weightModeNames is the one table of weight-mode names: String and
// ParseWeightMode read it, and through them the CLI's -mode flag and the
// server's "mode" field. The unassigned 2 has the empty name, which neither
// prints nor parses.
var weightModeNames = [...]string{
	Original:           "original",
	IdenticalWeights:   "identical",
	ConstrainedWeights: "constrained",
}

func (m WeightMode) String() string {
	if m < 0 || int(m) >= len(weightModeNames) || weightModeNames[m] == "" {
		return "unknown"
	}
	return weightModeNames[m]
}

// ParseWeightMode is the inverse of WeightMode.String.
func ParseWeightMode(name string) (WeightMode, error) {
	for m, n := range weightModeNames {
		if n == name && n != "" {
			return WeightMode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

func (m WeightMode) toCore() (core.WeightMode, error) {
	switch m {
	case Original:
		return core.Original, nil
	case IdenticalWeights:
		return core.Identical, nil
	case ConstrainedWeights:
		return core.SumConstraint, nil
	}
	return 0, fmt.Errorf("milret: unknown weight mode %d", m)
}

// Options configures image preprocessing. The zero value reproduces the
// paper's defaults: 20 regions plus mirrors (40 instances per image) sampled
// at 10×10 (100-dimensional features).
type Options struct {
	// Resolution is the sampling size h; features have h² dimensions.
	// Supported sweep values in the paper: 6, 10, 15. Default 10.
	Resolution int
	// Regions selects the region family size: 9, 20 or 42. Default 20.
	Regions int
	// VerifyOnLoad makes LoadDatabase checksum the stored instance block
	// before serving from it. The default fast open validates structure and
	// the metadata checksum and adopts the (possibly memory-mapped) float
	// block with no decode and no copy — its one read of the floats is the
	// sequential pass that builds the scan's per-bag sketches — and a
	// background goroutine checksums the block after the load (see
	// Database.Verification); set VerifyOnLoad when end-to-end integrity
	// must be established before the first query. It has no effect on
	// AddImage/Save.
	VerifyOnLoad bool
	// Shards is the number of independent shards the database spreads its
	// images over (0 and 1 both mean a single shard). Each shard owns its
	// own flat scoring block, lock, tombstone mask, snapshot file and
	// mutation log, so scans fan out across shards, compaction rewrites one
	// shard at a time, and persistence touches only the shards that
	// changed. Rankings are independent of the shard count. The count is
	// fixed at construction; LoadDatabase takes it from the store (a
	// MILRETS1 manifest carries its shard count, a single flat file opens
	// as one shard) and ignores this field.
	Shards int
	// ConceptCacheMB enables the concept cache: an in-memory LRU of
	// trained concepts bounded to roughly this many MB, keyed by a
	// canonical fingerprint of (positive bags, negative bags, training
	// configuration). With the cache on, Train serves repeat queries
	// without re-running the optimizer, and concurrent identical queries
	// coalesce onto one training run (see TrainCachedContext). 0 disables the
	// cache. Consistency with mutations is automatic: the fingerprint
	// hashes the examples' actual instance vectors, so a query whose
	// example images changed retrains, and entries for the old content age
	// out of the LRU.
	ConceptCacheMB int
	// ConceptCacheFile makes the concept cache survive restarts: hot
	// (fingerprint → concept) pairs are serialized to this sidecar file on
	// every Save, Flush and Close, and loaded back by LoadDatabase, so a
	// restarted replica answers repeat queries without retraining (no
	// cold-start training storm). The sidecar is advisory — a missing,
	// torn or corrupt file never fails an open; the replica just starts
	// cold. Entries whose dimensionality does not match the store, or
	// whose geometry is damaged, are dropped on load; content-addressed
	// keys make any further staleness checks unnecessary (an entry for
	// since-mutated examples is simply never hit again). Ignored when
	// ConceptCacheMB is 0. See store.WriteCacheSidecar for the format.
	ConceptCacheFile string
}

func (o Options) toFeature() feature.Options {
	fo := feature.Options{Resolution: o.Resolution}
	if o.Regions != 0 {
		fo.Regions = region.SetSize(o.Regions)
	}
	return fo
}

// TrainOptions configures Diverse Density training.
type TrainOptions struct {
	// Mode is the weight-control scheme. Default Original.
	Mode WeightMode
	// Beta is the weight-sum constraint level for ConstrainedWeights
	// (0 ≤ Beta ≤ 1).
	Beta float64
	// StartBags caps how many positive bags seed the multi-start
	// optimization; 0 uses all of them.
	StartBags int
	// MaxIters bounds optimizer iterations per start (0 = default, 120).
	// Only the starts that survive the race's barriers at 8, 24 and 72
	// iterations run that far; a bound of 8 or less runs every start to it.
	MaxIters int
	// BypassCache makes this training run skip the concept cache in both
	// directions: it neither consults nor populates it. No effect when the
	// database has no cache (Options.ConceptCacheMB 0).
	BypassCache bool
}

// Database is a content-addressable image collection ready for
// example-based retrieval, spread over one or more shards (Options.Shards).
// It is mutable: images are added, updated and deleted at any point in its
// life, and when the database is bound to a store path (by LoadDatabase or a
// first Save) every mutation is journaled per shard so Save persists
// incrementally through per-shard mutation logs instead of rewriting flat
// blocks (see Save, Flush, Compact). A single-shard database persists as one
// flat file; a sharded one as a MILRETS1 manifest plus one snapshot/log pair
// per shard.
type Database struct {
	opts feature.Options
	db   *retrieval.Database
	// j owns the database's on-disk store — which files make it up, the
	// order they change in, when a shard folds, what an acknowledged Save
	// means — and the one lock that keeps each shard's journal in apply
	// order (see store.Journal). Unbound until LoadDatabase or a first Save
	// gives it a path; immutable after construction.
	j *store.Journal

	// vmu guards the background data-verification outcome (see
	// VerifyStatus).
	vmu sync.Mutex
	// milret:guarded-by vmu
	verifyStat VerifyStatus
	// milret:guarded-by vmu
	verifyErr error

	// cache is the trained-concept LRU (nil when disabled). It needs no
	// lifecycle of its own: cached concepts hold freshly allocated
	// geometry, never views into the store's memory mapping, so Close has
	// nothing to release here.
	cache *qcache.Cache

	// cmu guards the concept-cache sidecar writer (cacheFile is immutable
	// after construction). cacheGenSaved is the cache content generation
	// the sidecar last captured: persistConceptCache compares it to
	// Cache.Gen and skips the rewrite when nothing changed, which makes
	// sidecar persistence on every Flush cheap for mutation-heavy,
	// query-light workloads.
	cmu       sync.Mutex
	cacheFile string // immutable after construction
	// milret:guarded-by cmu
	cacheGenSaved uint64
}

// VerifyStatus reports how far data-integrity verification of a loaded
// store has progressed.
type VerifyStatus int

const (
	// VerifyVerified: the instance block's checksum has been confirmed (or
	// the database never adopted an unverified block).
	VerifyVerified VerifyStatus = iota
	// VerifyPending: a background checksum pass is still running.
	VerifyPending
	// VerifyCorrupt: the stored checksum did not match — the adopted block
	// is damaged and results from it cannot be trusted.
	VerifyCorrupt
)

func (s VerifyStatus) String() string {
	switch s {
	case VerifyVerified:
		return "verified"
	case VerifyPending:
		return "pending"
	case VerifyCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// Verification reports the data-integrity state of the backing store. A
// database opened with the fast (non-verifying) load starts as
// VerifyPending while a background goroutine checksums the adopted block;
// it settles to VerifyVerified or VerifyCorrupt (with the checksum error).
// Databases built in memory or loaded with VerifyOnLoad are VerifyVerified
// from the start.
func (d *Database) Verification() (VerifyStatus, error) {
	d.vmu.Lock()
	defer d.vmu.Unlock()
	return d.verifyStat, d.verifyErr
}

// verifyInBackground checksums the adopted blocks off the critical path and
// records the outcome. A concurrent Close is safe: the store serializes the
// pass against it and answers store.ErrClosed afterwards, in which case the
// verdict stays pending (the mapping is gone, there is nothing left to
// attest).
func (d *Database) verifyInBackground() {
	d.vmu.Lock()
	d.verifyStat = VerifyPending
	d.vmu.Unlock()
	go func() {
		err := d.j.VerifyData()
		d.vmu.Lock()
		defer d.vmu.Unlock()
		switch {
		case err == nil:
			d.verifyStat = VerifyVerified
		case errors.Is(err, store.ErrClosed):
			// Closed before the pass finished; leave the status pending.
		default:
			d.verifyStat = VerifyCorrupt
			d.verifyErr = err
		}
	}()
}

// Close releases resources backing the database: the memory mappings
// adopted from flat stores by LoadDatabase and the open mutation-log
// writers, if any. Pending (unflushed) mutations are NOT persisted — call
// Save or Flush first. The concept-cache sidecar, when configured, IS
// captured (a graceful shutdown must leave the warm-start file behind;
// the write is skipped when the cache is unchanged since the last
// Save/Flush). A closed database must not be used again; it is safe to
// never call Close and let the mappings live for the process lifetime
// (they are read-only and page-cache backed).
func (d *Database) Close() error {
	err := d.persistConceptCache()
	if cerr := d.j.Close(); err == nil {
		err = cerr
	}
	return err
}

// NewDatabase returns an empty database with the given preprocessing
// options. The options are fixed for the database's lifetime: every image
// must be featurized identically for distances to be meaningful, and the
// shard count determines item placement.
func NewDatabase(opts Options) (*Database, error) {
	fo := opts.toFeature()
	if opts.Regions != 0 {
		if _, err := region.Set(region.SetSize(opts.Regions)); err != nil {
			return nil, fmt.Errorf("milret: %w", err)
		}
	}
	d := &Database{opts: fo, db: retrieval.NewDatabaseSharded(opts.Shards)}
	d.j = store.NewJournal(fo.Dim(), d.db.ShardCount())
	if opts.ConceptCacheMB > 0 {
		d.cache = qcache.New(int64(opts.ConceptCacheMB) << 20)
		d.cacheFile = opts.ConceptCacheFile
	}
	return d, nil
}

// ShardCount returns the number of shards the database spreads its images
// over (≥ 1).
func (d *Database) ShardCount() int { return d.db.ShardCount() }

// Recall returns 0: every retrieval is the exact scan. It stays only
// because the benchmark harness, which is frozen, still calls it (ROADMAP
// item 5).
func (d *Database) Recall() float64 { return 0 }

// AddImage preprocesses img (any stdlib image; color is converted to gray
// scale) and stores its bag under the unique id. The label is optional
// metadata carried through to results — evaluation code uses it as the
// ground-truth category.
func (d *Database) AddImage(id, label string, img image.Image) error {
	if id == "" {
		return fmt.Errorf("milret: empty image ID")
	}
	g := gray.FromImage(img)
	bag, err := feature.BagFromImage(id, g, d.opts)
	if err != nil {
		return err
	}
	return d.mutate(store.WALRecord{Op: store.WALAdd, Rec: store.Record{ID: id, Label: label, Bag: bag}})
}

// DeleteImage removes the image with the given id. Queries issued after
// DeleteImage returns no longer see it; the deletion becomes durable on the
// next Save or Flush. The removal is a tombstone in the scoring index — the
// database compacts itself once enough dead weight accumulates — and
// rankings afterwards are bit-identical to a database that never contained
// the image.
func (d *Database) DeleteImage(id string) error {
	return d.mutate(store.WALRecord{Op: store.WALDelete, Rec: store.Record{ID: id}})
}

// UpdateImage replaces the stored image under id: the new img is
// preprocessed into a fresh bag and swapped in atomically together with the
// new label. A nil img keeps the existing bag and updates the label only —
// a metadata-only operation: the label is swapped in place (no instance
// rows move, no tombstone accumulates; the swap is copy-on-write against
// in-flight scans, so its in-memory cost is amortized O(1) — see
// retrieval.Database.UpdateLabel) and the journal records a label-only WAL
// entry a few dozen bytes long instead of re-encoding the bag. The id must
// already exist (use AddImage for new images); the update becomes durable
// on the next Save or Flush.
func (d *Database) UpdateImage(id, label string, img image.Image) error {
	if id == "" {
		return fmt.Errorf("milret: empty image ID")
	}
	if img == nil {
		return d.mutate(store.WALRecord{Op: store.WALLabel, Rec: store.Record{ID: id, Label: label}})
	}
	g := gray.FromImage(img)
	bag, err := feature.BagFromImage(id, g, d.opts)
	if err != nil {
		return err
	}
	return d.mutate(store.WALRecord{Op: store.WALUpdate, Rec: store.Record{ID: id, Label: label, Bag: bag}})
}

// mutate applies one mutation to the scoring database and journals it for
// the next Save/Flush, as one step under the journal's lock.
func (d *Database) mutate(wr store.WALRecord) error {
	return d.j.Apply(d.db.ShardFor(wr.Rec.ID), wr, func() error { return d.apply(wr) })
}

// apply executes one journal record against the scoring database — a fresh
// mutation on its way into the journal, or a replayed one on its way out.
func (d *Database) apply(wr store.WALRecord) error {
	item := retrieval.Item{ID: wr.Rec.ID, Label: wr.Rec.Label, Bag: wr.Rec.Bag}
	switch wr.Op {
	case store.WALAdd:
		return d.db.Add(item)
	case store.WALDelete:
		return d.db.Delete(item.ID)
	case store.WALUpdate:
		return d.db.Update(item)
	case store.WALLabel:
		return d.db.UpdateLabel(item.ID, item.Label)
	}
	return fmt.Errorf("unknown op %v", wr.Op)
}

// Len returns the number of stored images.
func (d *Database) Len() int { return d.db.Len() }

// IDs returns all image IDs in insertion order.
func (d *Database) IDs() []string {
	out := make([]string, 0, d.db.Len())
	d.db.EachLabel(func(id, _ string) { out = append(out, id) })
	return out
}

// Labels returns the distinct labels present, sorted.
func (d *Database) Labels() []string {
	seen := map[string]bool{}
	d.db.EachLabel(func(_, label string) {
		if label != "" {
			seen[label] = true
		}
	})
	out := make([]string, 0, len(seen))
	for lb := range seen {
		out = append(out, lb)
	}
	sort.Strings(out)
	return out
}

// Label returns the stored label of an image.
func (d *Database) Label(id string) (label string, ok bool) {
	d.db.EachLabel(func(_, l string) { label, ok = l, true }, id)
	return label, ok
}

// Concept is a trained retrieval concept: the "ideal" feature point and
// weights Diverse Density found for the user's examples.
type Concept struct {
	c *core.Concept
}

// NegLogDD is the training objective at the solution; lower means the
// concept explains the examples better.
func (c *Concept) NegLogDD() float64 { return c.c.NegLogDD }

// Weights returns a copy of the effective per-dimension distance weights.
func (c *Concept) Weights() []float64 {
	return append([]float64(nil), c.c.Weights...)
}

// Point returns a copy of the concept point in feature space.
func (c *Concept) Point() []float64 {
	return append([]float64(nil), c.c.Point...)
}

// Train runs Diverse Density over the identified example images. Positive
// examples should contain the concept; negative examples must not. At
// least one positive is required; negatives may be empty (though retrieval
// precision benefits greatly from a few).
//
// With the concept cache enabled (Options.ConceptCacheMB), Train consults
// it before running the optimizer: a query whose examples and training
// configuration fingerprint to a cached concept is served without
// training, and concurrent identical queries share one training run. Use
// TrainCachedContext to observe the disposition, TrainOptions.BypassCache
// to force a fresh run.
func (d *Database) Train(positiveIDs, negativeIDs []string, opts TrainOptions) (*Concept, error) {
	c, _, err := d.TrainCachedContext(context.Background(), positiveIDs, negativeIDs, opts)
	return c, err
}

// CacheOutcome reports how a TrainCachedContext call was satisfied.
type CacheOutcome int

const (
	// CacheDisabled: the database has no concept cache; training ran.
	CacheDisabled CacheOutcome = iota
	// CacheBypassed: TrainOptions.BypassCache skipped the cache; training
	// ran and the result was not retained.
	CacheBypassed
	// CacheMiss: no cached concept matched; training ran and the result
	// was cached.
	CacheMiss
	// CacheHit: a cached concept was served; no training ran.
	CacheHit
	// CacheCoalesced: an identical training run was already in flight;
	// this call waited for it and shares its result.
	CacheCoalesced
)

func (o CacheOutcome) String() string {
	switch o {
	case CacheDisabled:
		return "disabled"
	case CacheBypassed:
		return "bypass"
	case CacheMiss:
		return "miss"
	case CacheHit:
		return "hit"
	case CacheCoalesced:
		return "coalesced"
	}
	return "unknown"
}

// TrainCachedContext is Train plus the concept-cache disposition of the
// call. A cache hit returns the very concept the original training run
// produced, so for a repeat of the same request rankings are bit-identical
// to a fresh run with the same examples and options (training is
// deterministic; the equivalence is property-tested). A request that
// permutes the example order within a side is served the same cached
// concept — bags are unordered collections (§2.1.2), so the canonical
// concept is the intended answer — even though a fresh run fed the
// permuted order could differ from it in final-ulp floating-point
// rounding of the optimizer trajectory. When a StartBags cap makes
// positive order genuinely select different optimization starts, order
// is part of the key and no such sharing happens.
//
// ctx bounds only the caller's wait: a call that coalesces onto another
// caller's in-flight training run stops waiting when ctx is done and
// returns ctx.Err(). The flight leader is never cancelled — it trains to
// completion and caches the result for future callers. This is what lets a
// server drain cleanly under load: a force-closed request context releases
// its handler immediately instead of stranding it behind someone else's
// training run.
func (d *Database) TrainCachedContext(ctx context.Context, positiveIDs, negativeIDs []string, opts TrainOptions) (*Concept, CacheOutcome, error) {
	ds, err := d.dataset(positiveIDs, negativeIDs)
	if err != nil {
		return nil, CacheDisabled, err
	}
	return trainDataset(ctx, d.cache, ds, opts)
}

// trainDataset runs one training request — assembled examples plus
// options — through an optional concept cache. It is the seam between
// the in-process path (TrainCachedContext, which resolves example IDs
// against this database) and the distributed path (TrainBags, which
// receives example bags fetched from remote shard owners): both funnel
// here, so a coordinator's cache and a shard's cache fingerprint
// identically and a concept trained either way is bit-identical.
func trainDataset(ctx context.Context, cache *qcache.Cache, ds *mil.Dataset, opts TrainOptions) (*Concept, CacheOutcome, error) {
	mode, err := opts.Mode.toCore()
	if err != nil {
		return nil, CacheDisabled, err
	}
	cfg := core.Config{
		Mode:      mode,
		Beta:      opts.Beta,
		StartBags: opts.StartBags,
		Opt:       optimize.Options{MaxIter: opts.MaxIters},
	}
	train := func() (*core.Concept, error) { return core.Train(ds, cfg) }
	switch {
	case cache == nil:
		concept, err := train()
		if err != nil {
			return nil, CacheDisabled, err
		}
		return &Concept{c: concept}, CacheDisabled, nil
	case opts.BypassCache:
		cache.NoteBypass()
		concept, err := train()
		if err != nil {
			return nil, CacheBypassed, err
		}
		return &Concept{c: concept}, CacheBypassed, nil
	}
	key := trainFingerprint(ds, mode, cfg)
	concept, qout, err := cache.DoContext(ctx, key, train)
	out := CacheMiss
	switch qout {
	case qcache.Hit:
		out = CacheHit
	case qcache.Coalesced:
		out = CacheCoalesced
	}
	if err != nil {
		return nil, out, err
	}
	return &Concept{c: concept}, out, nil
}

// trainFingerprint canonicalizes a training request into its cache key.
// The tag captures every configuration field that can change the trained
// concept, with mode-irrelevant hyperparameters normalized away (Beta only
// steers ConstrainedWeights) and optimizer bounds pinned to their effective
// defaults, so spelling a default explicitly still hits. Positive-bag order
// is canonicalized away unless a start-bag cap below the positive count
// makes order select different optimization starts (§4.3), in which case
// it is genuinely part of the request.
func trainFingerprint(ds *mil.Dataset, mode core.WeightMode, cfg core.Config) qcache.Key {
	return trainFingerprintAt(trainerVersion, ds, mode, cfg)
}

// trainerVersion is the first byte of every cache key's tag: the generation
// of the trainer that produced the cached concept. Keys live on in
// concept-cache sidecars across upgrades, and cache hit ≡ retrain has to hold
// across them too, so a change to what core.Train returns for the same
// request takes a new version. 1 was the exhaustive multi-start; 2 is the
// successive-halving race, which may crown a different start — a sidecar
// written under 1 must miss, not answer with a concept this build would not
// train.
const trainerVersion = 2

func trainFingerprintAt(version byte, ds *mil.Dataset, mode core.WeightMode, cfg core.Config) qcache.Key {
	beta := 0.0
	if mode == core.SumConstraint {
		beta = cfg.Beta
	}
	maxIter := cfg.Opt.MaxIter
	if maxIter <= 0 {
		maxIter = core.DefaultMaxIter
	}
	startBags := cfg.StartBags
	if startBags <= 0 || startBags >= len(ds.Positive) {
		startBags = 0 // canonical "all positives seed starts"
	}
	orderSensitive := startBags != 0

	tag := make([]byte, 0, 1+1+8+8+8+8)
	tag = append(tag, version, byte(mode))
	// The retired α-hack's α had this slot; every other mode wrote 0, and
	// still does, so their keys (and sidecars) carry over.
	tag = binary.LittleEndian.AppendUint64(tag, math.Float64bits(0))
	tag = binary.LittleEndian.AppendUint64(tag, math.Float64bits(beta))
	tag = binary.LittleEndian.AppendUint64(tag, uint64(maxIter))
	tag = binary.LittleEndian.AppendUint64(tag, uint64(startBags))
	return qcache.Fingerprint(tag, ds.Positive, ds.Negative, orderSensitive)
}

func (d *Database) dataset(positiveIDs, negativeIDs []string) (*mil.Dataset, error) {
	ds := &mil.Dataset{
		Positive: make([]*mil.Bag, 0, len(positiveIDs)),
		Negative: make([]*mil.Bag, 0, len(negativeIDs)),
	}
	for _, id := range positiveIDs {
		it, ok := d.db.ByID(id)
		if !ok {
			return nil, fmt.Errorf("milret: positive example %q not in database", id)
		}
		ds.Positive = append(ds.Positive, it.Bag)
	}
	for _, id := range negativeIDs {
		it, ok := d.db.ByID(id)
		if !ok {
			return nil, fmt.Errorf("milret: negative example %q not in database", id)
		}
		ds.Negative = append(ds.Negative, it.Bag)
	}
	return ds, nil
}

// NewConcept reconstitutes a concept from explicit geometry: the concept
// point and the per-dimension distance weights, as exported by
// Concept.Point and Concept.Weights. This is how a concept trained in one
// process (or returned by the HTTP API) is replayed against another
// database — the ingredient of batched false-positive mining and
// multi-replica serving. The slices are copied; point and weights must have
// the same non-zero length and contain only finite values.
func NewConcept(point, weights []float64) (*Concept, error) {
	if len(point) == 0 {
		return nil, fmt.Errorf("milret: empty concept point")
	}
	if len(point) != len(weights) {
		return nil, fmt.Errorf("milret: concept point dim %d != weights dim %d", len(point), len(weights))
	}
	c := &core.Concept{
		Point:   append(mat.Vector(nil), point...),
		Weights: append(mat.Vector(nil), weights...),
	}
	if !c.Point.IsFinite() || !c.Weights.IsFinite() {
		return nil, fmt.Errorf("milret: concept geometry contains non-finite values")
	}
	return &Concept{c: c}, nil
}

// Result is one retrieved image.
type Result struct {
	// ID identifies the image.
	ID string
	// Label is the metadata label stored with the image.
	Label string
	// Distance is the weighted squared distance from the image's best
	// instance to the concept point; smaller is a better match.
	Distance float64
}

// RetrieveOption tunes one retrieval call.
type RetrieveOption func(*retrieveConfig)

type retrieveConfig struct {
	// seed is the caller's cutoff seed: zero for a whole query, non-zero
	// (+Inf when it bounds nothing) for a partition scan.
	seed float64
}

// WithRecall does nothing: every retrieval is the exact scan, which meets
// any recall target. It stays only because the benchmark harness, which is
// frozen, still passes it (ROADMAP item 5).
func WithRecall(float64) RetrieveOption {
	return func(*retrieveConfig) {}
}

// WithCutoffSeed marks the scan as one partition of a larger logical
// query — how a shard server scans its part of a coordinator's query — and
// pre-tightens its top-k cutoff to d before the scan starts. The caller
// asserts d upper-bounds the k-th best distance of the whole logical query;
// a stale (too-loose) seed only weakens pruning, never correctness.
// Non-positive seeds pre-tighten nothing. A scan without this option is a
// whole query, and seeds itself from the last answer to the same query
// (see retrieval.TopK); a partition scan neither reads nor writes that
// memory.
func WithCutoffSeed(d float64) RetrieveOption {
	return func(cfg *retrieveConfig) {
		if !(d > 0) {
			d = math.Inf(1) // seeds nothing, and still marks a partition scan
		}
		cfg.seed = d
	}
}

// Retrieve returns the k best matches for the concept, nearest first.
func (d *Database) Retrieve(c *Concept, k int, ropts ...RetrieveOption) []Result {
	return d.RetrieveExcluding(c, k, nil, ropts...)
}

// RetrieveExcluding is Retrieve with some image IDs (typically the training
// examples) removed from consideration.
func (d *Database) RetrieveExcluding(c *Concept, k int, exclude []string, ropts ...RetrieveOption) []Result {
	ex := make(map[string]bool, len(exclude))
	for _, id := range exclude {
		ex[id] = true
	}
	var cfg retrieveConfig
	for _, o := range ropts {
		o(&cfg)
	}
	top := retrieval.TopK(d.db, c.c, k, retrieval.Options{Exclude: ex, CutoffSeed: cfg.seed})
	return convertResults(top)
}

// RankAll returns the full database ranking for the concept.
func (d *Database) RankAll(c *Concept) []Result {
	return d.RankAllExcluding(c, nil)
}

// RankAllExcluding is RankAll with some image IDs removed from the
// ranking — the exhaustive-scan counterpart of RetrieveExcluding, with no
// cutoff and no filter: the ranking the tests hold every top-k scan to.
func (d *Database) RankAllExcluding(c *Concept, exclude []string) []Result {
	var ex map[string]bool
	if len(exclude) > 0 {
		ex = make(map[string]bool, len(exclude))
		for _, id := range exclude {
			ex[id] = true
		}
	}
	return convertResults(retrieval.Rank(d.db, c.c, retrieval.Options{Exclude: ex}))
}

// CheckConcept reports whether c can be scanned against this database: a nil
// concept, or one whose dimensionality differs from a non-empty database's,
// is an error. Retrieve, RetrieveExcluding and RankAll trust their caller
// and panic on a mismatch, so every edge that accepts concept geometry from
// outside the process (RetrieveMany, the shard RPC's scan ops) checks it
// here first and answers the sender with an error instead.
func (d *Database) CheckConcept(c *Concept) error {
	if c == nil {
		return fmt.Errorf("milret: nil concept")
	}
	if dim := d.db.Dim(); dim != 0 && len(c.c.Point) != dim {
		return fmt.Errorf("milret: concept has dim %d, database dim %d", len(c.c.Point), dim)
	}
	return nil
}

// RetrieveMany returns the k best matches for each of several concepts,
// nearest first. A batch is single scans over one pinned snapshot of the
// scoring index: element i is exactly RetrieveExcluding(concepts[i], k,
// exclude) against that snapshot, and the scan workers are handed whole
// concepts before any one scan is split among them.
//
// Every concept's dimensionality must match the database's; a nil concept
// is an error. An empty database yields one empty ranking per concept. A
// batch takes no cutoff seed, so the options change nothing; they are
// accepted because the frozen benchmark harness passes WithRecall (ROADMAP
// item 5).
func (d *Database) RetrieveMany(concepts []*Concept, k int, exclude []string, _ ...RetrieveOption) ([][]Result, error) {
	if len(concepts) == 0 {
		return nil, nil
	}
	scorers := make([]retrieval.Scorer, len(concepts))
	for i, c := range concepts {
		if err := d.CheckConcept(c); err != nil {
			return nil, fmt.Errorf("concept %d: %w", i, err)
		}
		scorers[i] = c.c
	}
	out := make([][]Result, len(concepts))
	ex := make(map[string]bool, len(exclude))
	for _, id := range exclude {
		ex[id] = true
	}
	for i, rs := range retrieval.TopKMany(d.db, scorers, k, retrieval.Options{Exclude: ex}) {
		out[i] = convertResults(rs)
	}
	return out, nil
}

// QuerySpec is one example-based query of a batch: the inputs of Train,
// carried through TrainManyContext.
type QuerySpec struct {
	Positives []string
	Negatives []string
	Opts      TrainOptions
}

// TrainManyContext obtains one concept per spec through the concept cache,
// so callers that mix trained queries with pre-built concepts (the
// server's batch endpoint) can rank all of them as one RetrieveMany batch.
// Repeat specs within the batch pay for one training run (the first
// misses, the rest hit); the outcomes slice is parallel to specs. An error
// identifies the failing spec by index. ctx bounds each spec's wait as in
// TrainCachedContext.
func (d *Database) TrainManyContext(ctx context.Context, specs []QuerySpec) ([]*Concept, []CacheOutcome, error) {
	concepts := make([]*Concept, len(specs))
	outcomes := make([]CacheOutcome, len(specs))
	for i, sp := range specs {
		c, out, err := d.TrainCachedContext(ctx, sp.Positives, sp.Negatives, sp.Opts)
		if err != nil {
			return nil, nil, fmt.Errorf("milret: query %d: %w", i, err)
		}
		concepts[i] = c
		outcomes[i] = out
	}
	return concepts, outcomes, nil
}

func convertResults(rs []retrieval.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{ID: r.ID, Label: r.Label, Distance: r.Dist}
	}
	return out
}

// Save persists the database to path. The first save to a path (and any
// save to a path the database is not bound to) writes full flat columnar
// snapshots atomically and binds the database to them: one flat file at
// path for a single-shard database, or one snapshot per shard plus a
// MILRETS1 manifest at path for a sharded one. Subsequent saves to the same
// path are incremental and per-shard: each shard's mutations applied since
// the last save are appended to that shard's mutation log
// (snapshot+".wal") and fsynced — cost proportional to the changes, and
// only in the shards that changed. Once a shard's log outgrows half its
// live items, Save folds that shard alone into a fresh snapshot and removes
// its log; the other shards' files are untouched. A mutation is durable (it
// survives a crash and reopen) exactly when the Save or Flush covering it
// has returned.
//
// Concurrent Saves and Flushes group-commit: their log appends are
// serialized, but the fsyncs that acknowledge them are shared (one fsync
// per batch per touched shard, not one per caller). The protocol is
// store.Journal's; see there for the order files change in.
func (d *Database) Save(path string) error {
	if path == "" {
		return fmt.Errorf("milret: empty store path")
	}
	return d.persist(path)
}

// Flush persists the pending mutations to the bound store, exactly like
// Save to the bound path. It is a no-op (and returns nil) for a database
// not yet bound by LoadDatabase or Save.
func (d *Database) Flush() error {
	// The empty path is the journal's spelling of "whatever the database is
	// bound to when the commit is staged", resolved under its lock, so a
	// concurrent Save to a new path can never race Flush into rewriting
	// (and re-binding to) the old one.
	return d.persist("")
}

func (d *Database) persist(path string) error {
	if err := d.j.Save(path, liveShards{d.db}); err != nil {
		return err
	}
	return d.persistConceptCache()
}

// Compact rewrites every shard's scoring index without its tombstones and,
// when the database is bound to a store path, folds every shard's mutation
// log into a fresh snapshot (removing the log), one shard at a time: should
// a shard fail to write, the shards before it are folded, the rest are as
// they were, and every one of them keeps accepting Flushes. Rankings are
// unaffected. Shards whose dead rows crossed the auto-compaction threshold
// have already been compacted individually on the way here; Compact is the
// explicit everything-now variant.
func (d *Database) Compact() error {
	d.db.Compact()
	return d.j.Compact(liveShards{d.db})
}

// liveShards is the journal's view of the scoring database: what a shard's
// next snapshot would hold, and how large it is for the fold policy.
type liveShards struct{ db *retrieval.Database }

func (l liveShards) Count(shard int) int { return l.db.ShardStats()[shard].Images }

func (l liveShards) Records(shard int) []store.Record {
	items := l.db.ShardItems(shard)
	recs := make([]store.Record, len(items))
	for i, it := range items {
		recs[i] = store.Record{ID: it.ID, Label: it.Label, Bag: it.Bag}
	}
	return recs
}

// persistConceptCache captures the concept cache into its sidecar file,
// hottest-first, so a later LoadDatabase warms the cache with the entries
// most worth having. The write is skipped when the cache content is
// unchanged since the last capture (recency-only traffic does not count),
// which keeps Flush-per-mutation workloads from rewriting an identical
// sidecar on every acknowledgment. A no-op when the cache is disabled or
// no sidecar path was configured.
func (d *Database) persistConceptCache() error {
	if d.cache == nil || d.cacheFile == "" {
		return nil
	}
	d.cmu.Lock()
	defer d.cmu.Unlock()
	gen := d.cache.Gen()
	if gen == d.cacheGenSaved {
		return nil
	}
	dim := d.opts.Dim()
	exported := d.cache.Export()
	entries := make([]store.CacheEntry, 0, len(exported))
	for _, se := range exported {
		c := se.Concept
		if len(c.Point) != dim || len(c.Weights) != dim {
			continue // never let a malformed entry poison the sidecar
		}
		entries = append(entries, store.CacheEntry{
			Key:      [32]byte(se.Key),
			Mode:     uint8(c.Mode),
			Starts:   uint32(c.Starts),
			Evals:    uint32(c.Evals),
			NegLogDD: c.NegLogDD,
			Point:    c.Point,
			Weights:  c.Weights,
		})
	}
	if err := store.WriteCacheSidecar(d.cacheFile, dim, entries); err != nil {
		return fmt.Errorf("milret: writing concept-cache sidecar: %w", err)
	}
	d.cacheGenSaved = gen
	return nil
}

// warmConceptCache imports the concept-cache sidecar, if one is readable.
// The sidecar is advisory by contract: any failure — missing file, torn
// header, corruption, a dimensionality from a differently-configured
// store — means a cold start, never a load error. Entries are vetted
// structurally before install (matching dimensionality is checked for the
// whole file, finite geometry and a known weight mode per entry); the
// content-addressed keys need no further staleness check, because an
// entry for since-changed examples can never be fingerprinted again.
func (d *Database) warmConceptCache() {
	dim, raw, err := store.ReadCacheSidecar(d.cacheFile)
	if err != nil || dim != d.opts.Dim() {
		return
	}
	entries := make([]qcache.SavedEntry, 0, len(raw))
	for _, e := range raw {
		switch core.WeightMode(e.Mode) {
		case core.Original, core.Identical, core.SumConstraint:
		default: // including 2, the retired α-hack: no key reaches it
			continue
		}
		c := &core.Concept{
			Point:    mat.Vector(e.Point),
			Weights:  mat.Vector(e.Weights),
			NegLogDD: e.NegLogDD,
			Mode:     core.WeightMode(e.Mode),
			Starts:   int(e.Starts),
			Evals:    int(e.Evals),
		}
		if !c.Point.IsFinite() || !c.Weights.IsFinite() || math.IsNaN(c.NegLogDD) {
			continue
		}
		entries = append(entries, qcache.SavedEntry{Key: qcache.Key(e.Key), Concept: c})
	}
	d.cache.Import(entries)
	// The sidecar already holds this content; don't rewrite it on the next
	// Flush unless training or eviction changes the cache.
	d.cmu.Lock()
	d.cacheGenSaved = d.cache.Gen()
	d.cmu.Unlock()
}

// The stats tree. Every block is declared once, with its wire name, by the
// layer that counts it, and Stats composes them: GET /v1/stats and the shard
// RPC's stats op are json.Marshal of this value, so a new counter costs one
// field where it is counted and one increment.
type (
	// CacheStats snapshots the concept cache (see Options.ConceptCacheMB).
	CacheStats = qcache.Stats
	// PruneStats counts top-k scans and the candidate filter's admission
	// decisions. Scans is every top-k scan (one per concept of a batch) and
	// Unarmed the ones that ran without the filter — a concept with a
	// negative weight, or k covering the whole database — so a slow
	// unfiltered scan is visible as such. Screened bags reached an armed
	// filter (a top-k cutoff existed), and each was either Admitted to the
	// exact scan or Rejected on its bounding-box bound alone.
	// Screened = Admitted + Rejected. Rows counts the instance rows the
	// exact kernel was handed and Offers the scored bags offered to a
	// best-k heap — the scans' work, as counts. Seeded counts the whole
	// queries that started from the k-th-best distance of the last answer
	// to the same query, and Rescans those whose data had moved past it, so
	// that they were scanned again without it.
	PruneStats = index.PruneSnapshot
	// TrainStats counts this process's Diverse Density training work; every
	// trainer in the process — cache misses, uncached Train calls, a
	// coordinator's own training — feeds it.
	TrainStats = core.TrainStats
)

// JournalStats is a mutation journal's depth: PendingMutations applied but
// not yet persisted (drained by Save/Flush), WALMutations already durable in
// the mutation log (0 while the log state is being rebuilt). Both are 0 for
// unbound in-memory databases.
type JournalStats struct {
	PendingMutations int `json:"pending_mutations,omitempty"`
	WALMutations     int `json:"wal_mutations,omitempty"`
}

// ShardStats is one shard's row: its flat scoring index — live Images and
// Instances, then IndexBytes, DeadImages and DeadInstances (tombstoned bags
// and their rows occupy the block until the next compaction) — and its
// journal.
type ShardStats struct {
	retrieval.ShardStats
	JournalStats
}

// Stats summarizes the database's flat scoring indexes and mutation
// lifecycle, in total and per shard.
type Stats struct {
	// The totals are the shard row's own columns — exactly the column sums
	// of Shards — around Dim, the feature dimensionality.
	retrieval.LiveStats
	Dim int `json:"dim"`
	retrieval.BlockStats
	JournalStats
	// Shards breaks every total down per shard.
	Shards []ShardStats `json:"shards"`
	// Cache reports the concept cache's occupancy and traffic counters;
	// nil when the cache is disabled (Options.ConceptCacheMB 0).
	Cache *CacheStats `json:"cache,omitempty"`
	// Train and Prune are absent from the JSON while all zero: until
	// something in the process has trained, and until this database has
	// run a top-k scan.
	Train TrainStats `json:"train,omitzero"`
	Prune PruneStats `json:"prune,omitzero"`
	// Partitions describes the partitions behind a distribution
	// coordinator (internal/remote), in topology order; nil for a
	// directly opened database.
	Partitions []PartitionStats `json:"partitions,omitempty"`
	// PartialPolicy is the coordinator's configured behavior when a
	// partition is down: "fail" (queries error) or "degrade" (queries
	// answer from the reachable partitions). Empty for a directly opened
	// database.
	PartialPolicy string `json:"partial_policy,omitempty"`
	// DegradedQueries counts queries answered without one or more
	// unreachable partitions under the "degrade" policy.
	DegradedQueries int64 `json:"degraded_queries,omitempty"`
}

// addShards appends rows to s.Shards and adds every column into the totals.
// It is the one place a column is summed, for a database over its shards
// and (through Merge) for a coordinator over its partitions, so the totals
// match the rows by construction.
func (s *Stats) addShards(rows []ShardStats) {
	for _, row := range rows {
		s.Images += row.Images
		s.Instances += row.Instances
		s.IndexBytes += row.IndexBytes
		s.DeadImages += row.DeadImages
		s.DeadInstances += row.DeadInstances
		s.PendingMutations += row.PendingMutations
		s.WALMutations += row.WALMutations
	}
	s.Shards = append(s.Shards, rows...)
}

// Merge folds one partition's tree into a coordinator's: its shard rows
// (and with them the totals), its dimensionality and its scan counters.
// Cache, Train and the partition block describe the process serving a tree,
// not its data, and are left alone.
func (s *Stats) Merge(part Stats) {
	s.addShards(part.Shards)
	if part.Dim > 0 {
		s.Dim = part.Dim
	}
	s.Prune.Scans += part.Prune.Scans
	s.Prune.Unarmed += part.Prune.Unarmed
	s.Prune.Screened += part.Prune.Screened
	s.Prune.Admitted += part.Prune.Admitted
	s.Prune.Rejected += part.Prune.Rejected
	s.Prune.Rows += part.Prune.Rows
	s.Prune.Offers += part.Prune.Offers
	s.Prune.Seeded += part.Prune.Seeded
	s.Prune.Rescans += part.Prune.Rescans
}

// Stats reports the size of the underlying flat scoring indexes and the
// journal depth, per shard and in total.
func (d *Database) Stats() Stats {
	rows := make([]ShardStats, d.db.ShardCount())
	for i, row := range d.db.ShardStats() {
		rows[i].ShardStats = row
	}
	for i, depth := range d.j.Depth() {
		rows[i].JournalStats = JournalStats{PendingMutations: depth.Pending, WALMutations: max(depth.Durable, 0)}
	}
	st := Stats{Dim: d.db.Dim(), Train: core.TrainerStats(), Prune: d.db.PruneStats()}
	st.addShards(rows)
	if d.cache != nil {
		cs := d.cache.Stats()
		st.Cache = &cs
	}
	return st
}

// LoadDatabase reads a database saved by Save: a MILRETS1 sharded manifest
// or a single flat columnar file. Manifests reopen with their saved shard
// count, one snapshot (and mutation log) per shard; a single file opens as
// one shard. Snapshots open zero-copy: each instance block is adopted
// (memory-mapped where the platform allows) straight into its shard's
// scoring index without decoding or copying a single float; open reads the
// floats once, in the sequential pass that builds the per-bag sketches. See
// Options.VerifyOnLoad for the integrity trade-off (without
// it, a background goroutine checksums the adopted blocks after the load —
// see Verification). If a mutation log sits alongside a shard snapshot
// ("<snapshot>.wal", written by incremental Save), its records are replayed
// over that shard, so a reopened database carries every acknowledged
// mutation. Replay is strict: a record the database rejects (duplicate add,
// delete of an unknown ID) means snapshot and log are inconsistent, and the
// load fails rather than guessing. The feature dimensionality is the one
// the snapshot headers declare — also for a store whose images all arrived
// through its logs. If opts.Resolution is unset, the sampling resolution is
// inferred from it (h²), so stores built at any resolution reopen without
// extra configuration; an explicitly set resolution must match the store,
// so images added later remain comparable.
//
// Enumeration order: a reloaded sharded database lists images (IDs, Items)
// grouped by shard — per-shard insertion order is preserved, but the
// global interleaving of images that were added alternately to different
// shards is not recorded in the store. Single-shard stores round-trip
// their insertion order exactly. Rankings are unaffected either way
// (results order by distance with ID tie-breaks).
func LoadDatabase(path string, opts Options) (*Database, error) {
	j, shards, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	// Any error below must release the snapshots' memory mappings; on
	// success they back the database for the process lifetime.
	fail := func(err error) (*Database, error) {
		j.Close()
		return nil, err
	}
	if opts.VerifyOnLoad {
		if err := j.VerifyData(); err != nil {
			return fail(err)
		}
	}
	dim := j.Dim()
	if opts.Resolution == 0 {
		if h := int(math.Sqrt(float64(dim))); h*h == dim {
			opts.Resolution = h
		}
	}
	opts.Shards = len(shards)
	d, err := NewDatabase(opts)
	if err != nil {
		return fail(err)
	}
	if dim != d.opts.Dim() {
		return fail(fmt.Errorf("milret: stored dim %d does not match options dim %d", dim, d.opts.Dim()))
	}
	flatShards := make([]retrieval.FlatShard, len(shards))
	for i, sh := range shards {
		items := make([]retrieval.Item, len(sh.Flat.Records))
		for k, rec := range sh.Flat.Records {
			items[k] = retrieval.Item{ID: rec.ID, Label: rec.Label, Bag: rec.Bag}
		}
		flatShards[i] = retrieval.FlatShard{Items: items, Data: sh.Flat.Data}
		sh.Flat.Records = nil // the index owns the rows; the journal keeps the block, not these views
	}
	if d.db, err = retrieval.NewDatabaseFromFlats(flatShards, dim); err != nil {
		return fail(err)
	}
	d.j = j
	for _, sh := range shards {
		for i, wr := range sh.Log {
			if err := d.apply(wr); err != nil {
				return fail(fmt.Errorf("milret: replaying WAL record %d (%v %q): %w", i, wr.Op, wr.Rec.ID, err))
			}
		}
	}
	if d.cache != nil && d.cacheFile != "" {
		d.warmConceptCache()
	}
	if !opts.VerifyOnLoad {
		d.verifyInBackground()
	}
	return d, nil
}

// Explanation describes why an image matched a concept: the sub-region
// whose feature vector lies closest to the concept point. Region names
// follow the §3.2 family ("c-quad-tl", "f-vthird-right", ...) with "-lr"
// marking mirror instances (and "-r90"/"-r180"/"-r270" rotation instances
// when enabled).
type Explanation struct {
	// Region is the best-matching region's name.
	Region string
	// InstanceIndex is the instance's position within the image's bag.
	InstanceIndex int
	// Distance is the weighted squared distance of that instance to the
	// concept point (the image's ranking score).
	Distance float64
}

// Explain reports which region of the identified image best matches the
// concept — the interpretability payoff of the multiple-instance framing:
// the system can say not just that a picture matches, but where.
func (d *Database) Explain(c *Concept, id string) (Explanation, error) {
	it, ok := d.db.ByID(id)
	if !ok {
		return Explanation{}, fmt.Errorf("milret: image %q not in database", id)
	}
	dist, idx := c.c.BestInstance(it.Bag)
	if idx < 0 {
		return Explanation{}, fmt.Errorf("milret: image %q has an empty bag", id)
	}
	name := ""
	if it.Bag.Names != nil && idx < len(it.Bag.Names) {
		name = it.Bag.Names[idx]
	}
	return Explanation{Region: name, InstanceIndex: idx, Distance: dist}, nil
}

// Similarity returns the paper's correlation similarity measure between two
// images (§3.1): both are converted to gray scale, smoothed and sampled to
// resolution×resolution, and compared by correlation coefficient. The
// result lies in [-1, 1]; 1 means structurally identical. resolution 0 uses
// the default (10).
func Similarity(a, b image.Image, resolution int) (float64, error) {
	if resolution <= 0 {
		resolution = gray.DefaultResolution
	}
	return gray.CorrSampled(gray.FromImage(a), gray.FromImage(b), resolution)
}

// PRPoint is one point of a precision-recall curve.
type PRPoint = eval.PRPoint

// PrecisionRecallCurve computes the precision-recall curve of a ranking
// against a target label.
func PrecisionRecallCurve(results []Result, target string) []PRPoint {
	return eval.PrecisionRecall(toEval(results), target)
}

// AveragePrecision summarizes a ranking against a target label in one
// number (1.0 = perfect).
func AveragePrecision(results []Result, target string) float64 {
	return eval.AveragePrecision(toEval(results), target)
}

func toEval(results []Result) []retrieval.Result {
	out := make([]retrieval.Result, len(results))
	for i, r := range results {
		out[i] = retrieval.Result{ID: r.ID, Label: r.Label, Dist: r.Distance}
	}
	return out
}
