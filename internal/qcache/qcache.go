// Package qcache is the query-path concept cache: a concurrency-safe,
// size-bounded LRU of trained Diverse Density concepts keyed by a canonical
// fingerprint of the training request (see Fingerprint), with singleflight
// coalescing so N concurrent identical requests pay for exactly one
// training run and all share its outcome.
//
// The cache exists because training dominates query latency: every repeat
// or near-duplicate query re-runs the optimizer before the (fast, sharded)
// scan even starts. Serving from a reusable learned representation instead
// of retraining per request is what makes repeat-heavy traffic cheap — the
// same move the hashing line of MIL-retrieval work makes, specialized here
// to exact-reuse of the trained concept geometry.
//
// Consistency with a mutable database is by construction, not
// invalidation: the fingerprint hashes the actual instance vectors of the
// example bags, so a query whose examples were updated hashes to a new key
// and retrains, while entries keyed by the old content simply age out of
// the LRU. Cached concepts are immutable after training (the scan layers
// only read them), so hits are shared without copying.
package qcache

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"milret/internal/core"
)

// Outcome classifies how DoContext satisfied one request.
type Outcome int

const (
	// Miss: this caller was the flight leader and ran the training
	// function; the result (if successful) is now cached.
	Miss Outcome = iota
	// Hit: the concept was already cached; no training ran.
	Hit
	// Coalesced: another caller was already training the same key; this
	// caller waited and shares the leader's concept or error.
	Coalesced
)

func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// Stats is a point-in-time snapshot of the cache's counters — the "cache"
// block of the stats tree as /v1/stats carries it.
type Stats struct {
	// CapacityBytes is the configured memory bound; Bytes the estimated
	// footprint of the Entries currently cached.
	CapacityBytes int64 `json:"capacity_bytes"`
	Bytes         int64 `json:"bytes"`
	Entries       int   `json:"entries"`
	// Hits, Misses and Coalesced count DoContext outcomes (Coalesced: calls that
	// waited on an identical in-flight training run instead of starting
	// their own); Bypassed counts NoteBypass calls (requests that skipped
	// the cache on purpose); Evictions counts entries dropped to stay under
	// the memory bound.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Bypassed  int64 `json:"bypassed,omitempty"`
	Evictions int64 `json:"evictions,omitempty"`
	// WarmLoaded counts entries installed by Import — concepts warmed from
	// a persisted sidecar rather than trained by this process. Right after
	// a warm open it equals the number of concepts the replica can serve
	// without ever training.
	WarmLoaded int64 `json:"warm_loaded,omitempty"`
}

// entryOverhead approximates the per-entry bookkeeping cost beyond the
// concept's own vectors: the key, the map and list cells, and the Concept
// struct header.
const entryOverhead = 192

// conceptBytes estimates a trained concept's resident size: its two
// float64 vectors plus fixed overhead.
func conceptBytes(c *core.Concept) int64 {
	return int64(len(c.Point)+len(c.Weights))*8 + entryOverhead
}

type entry struct {
	key  Key
	c    *core.Concept
	size int64
}

// flight is one in-progress training run; waiters block on done and then
// read c/err, which the leader writes exactly once before closing done.
type flight struct {
	done chan struct{}
	c    *core.Concept
	err  error
}

// Cache is the LRU + singleflight store. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capBytes int64 // immutable after New
	// milret:guarded-by mu
	bytes int64
	// milret:guarded-by mu
	ll *list.List // front = most recently used; values are *entry
	// milret:guarded-by mu
	byKey map[Key]*list.Element
	// milret:guarded-by mu
	flights map[Key]*flight

	// gen counts content generations: it advances whenever the set of
	// cached (key → concept) pairs changes (insert, import, evict)
	// and is untouched by recency bumps, so a persister can compare
	// generations and skip rewriting an unchanged snapshot.
	//
	// milret:guarded-by mu
	gen uint64

	// milret:guarded-by mu
	hits, misses, coalesced, bypassed, evictions, loaded int64
}

// New returns a cache bounded to roughly capBytes of cached concept
// geometry (the bound is enforced on an estimate of resident size, not
// exact heap usage). capBytes must be positive — a caller that wants no
// cache should hold no Cache.
func New(capBytes int64) *Cache {
	if capBytes <= 0 {
		capBytes = 1 // degenerate but safe: nothing ever fits, every DoContext trains
	}
	return &Cache{
		capBytes: capBytes,
		ll:       list.New(),
		byKey:    make(map[Key]*list.Element),
		flights:  make(map[Key]*flight),
	}
}

// DoContext returns the concept cached under key, or trains it by calling
// train. Concurrent calls for the same key coalesce: exactly one caller (the
// leader) runs train, the rest wait and share the leader's concept or
// error. Errors are never cached — the next call after a failed flight
// trains again. The returned concept is shared and must be treated as
// immutable.
//
// ctx bounds only a waiter: one coalesced onto another caller's flight
// stops waiting when ctx is done and returns ctx.Err(). The leader is NOT
// cancelled — it owns the flight and runs train to completion regardless
// of its own ctx, because abandoning a half-trained concept would strand
// every other waiter and waste the work; a leader that must observe
// cancellation can close over ctx in train. This is what keeps server
// shutdown from deadlocking on in-flight training: force-closed request
// contexts release their coalesced waiters immediately while the leader
// lands and caches the result.
func (c *Cache) DoContext(ctx context.Context, key Key, train func() (*core.Concept, error)) (*core.Concept, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		cc := el.Value.(*entry).c
		c.mu.Unlock()
		return cc, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.coalesced++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.c, Coalesced, f.err
		case <-ctx.Done():
			return nil, Coalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	// Leader path. The deferred cleanup publishes the outcome and clears
	// the flight even if train panics: waiters must never hang on a dead
	// leader, and a panicking flight must not wedge the key forever.
	finished := false
	defer func() {
		if !finished {
			f.err = errTrainPanicked
		}
		close(f.done)
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insertLocked(key, f.c)
		}
		c.mu.Unlock()
	}()
	f.c, f.err = train()
	finished = true
	return f.c, Miss, f.err
}

// errTrainPanicked is what waiters observe when the flight leader's
// training function panicked instead of returning. The panic itself
// propagates on the leader's goroutine.
var errTrainPanicked = errors.New("qcache: training function panicked")

// insertLocked adds a trained concept under key, evicting from the cold
// end until the estimate fits. A concept larger than the whole cache is
// returned to its caller but not retained.
func (c *Cache) insertLocked(key Key, cc *core.Concept) {
	if _, ok := c.byKey[key]; ok {
		return // a racing leader for the same key already cached it
	}
	size := conceptBytes(cc)
	if size > c.capBytes {
		return
	}
	for c.bytes+size > c.capBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.byKey, ev.key)
		c.bytes -= ev.size
		c.evictions++
	}
	c.byKey[key] = c.ll.PushFront(&entry{key: key, c: cc, size: size})
	c.bytes += size
	c.gen++
}

// NoteBypass records a request that deliberately skipped the cache.
func (c *Cache) NoteBypass() {
	c.mu.Lock()
	c.bypassed++
	c.mu.Unlock()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		CapacityBytes: c.capBytes,
		Bytes:         c.bytes,
		Entries:       c.ll.Len(),
		Hits:          c.hits,
		Misses:        c.misses,
		Coalesced:     c.coalesced,
		Bypassed:      c.bypassed,
		Evictions:     c.evictions,
		WarmLoaded:    c.loaded,
	}
}

// Gen returns the cache's content generation. It advances on every change
// to the cached entry set — inserts, imports and evictions — but
// not on recency updates, so equal generations mean a previously exported
// snapshot is still exact.
func (c *Cache) Gen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// SavedEntry is one exported cache entry: the fingerprint key and the
// immutable trained concept it maps to. It is the unit of persistence —
// the store layer's sidecar codec carries the same pair as raw geometry.
type SavedEntry struct {
	Key     Key
	Concept *core.Concept
}

// Export snapshots every cached entry hottest-first (most recently used
// first). Hottest-first order is the persistence contract: a torn tail on
// disk loses only the coldest entries. The returned concepts are shared,
// not copied — callers must treat them as immutable.
func (c *Cache) Export() []SavedEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SavedEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		out = append(out, SavedEntry{Key: e.key, Concept: e.c})
	}
	return out
}

// Import installs previously exported entries, given hottest-first (the
// Export order). Entries are inserted coldest-first so the rebuilt LRU
// recency order matches the exporting process's; each insert honors the
// byte budget exactly like a trained result (oversized entries are
// skipped, cold entries evict). Keys already cached or mid-flight keep
// their current concept. Returns the number of entries installed.
func (c *Cache) Import(entries []SavedEntry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if e.Concept == nil {
			continue
		}
		if _, ok := c.byKey[e.Key]; ok {
			continue
		}
		c.insertLocked(e.Key, e.Concept)
		if _, ok := c.byKey[e.Key]; ok {
			n++
			c.loaded++
		}
	}
	return n
}
