package index

import (
	"iter"
	"math"
	"sync/atomic"
)

// Cutoff is a monotonically tightening top-k distance bound: the minimum
// of every value published to it. Within one scan the workers publish
// their current k-th best distances. Any such value is the k-th smallest of
// a subset of the final candidate set, hence an upper bound on the final
// global k-th best — so pruning a bag whose distance strictly exceeds the
// bound can never drop a true top-k member.
//
// The same bound accumulates a scan split across processes: a distribution
// coordinator creates one Cutoff per query, sends its current value to
// each partition as PruneOpts.CutoffSeed, and tightens it with the
// k-th-best bound each partition's response reports. A stale or missing
// contribution only weakens pruning, never correctness.
//
// Distances are non-negative, so their float64 bit patterns order like the
// values and a CAS min loop on the raw bits suffices.
type Cutoff struct{ bits atomic.Uint64 }

// NewCutoff returns a fresh bound at +Inf (nothing pruned yet).
func NewCutoff() *Cutoff {
	c := &Cutoff{}
	c.bits.Store(math.Float64bits(math.Inf(1)))
	return c
}

// Load returns the tightest bound published so far.
func (c *Cutoff) Load() float64 { return math.Float64frombits(c.bits.Load()) }

// Tighten lowers the bound to d if d is tighter. NaN is ignored: remote
// bounds are outside input, and a corrupt one must not poison the scan.
func (c *Cutoff) Tighten(d float64) {
	if math.IsNaN(d) {
		return
	}
	bits := math.Float64bits(d)
	for {
		cur := c.bits.Load()
		if bits >= cur || c.bits.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// memoBits sizes a CutoffMemo: 2^12 slots of 16 bytes, 64 KB, fixed.
const memoBits = 12

// CutoffMemo remembers, per whole logical top-k query, the k-th-best
// distance its last answer ended at, so that the next scan of the same query
// starts from that bound instead of +Inf. Queries repeat — that is why trained
// concepts are cached — and a repeat's k-th best moves only when the data or
// the query does.
//
// The memo is direct-mapped and keyed by CutoffKey. It is never invalidated,
// versioned or locked: MemoScan checks every seeded answer, so a stale entry,
// a torn one (two writers racing on a slot may pair one key with another's
// bound) or a colliding key costs at most a rescan or weaker pruning, never a
// different answer. The zero value is empty and ready.
type CutoffMemo struct {
	slots [1 << memoBits]memoSlot
}

type memoSlot struct{ key, bound atomic.Uint64 }

func (m *CutoffMemo) slot(key uint64) *memoSlot { return &m.slots[key>>(64-memoBits)] }

// load returns the bound remembered under key, or +Inf when there is none a
// scan could use (a zero, negative or non-finite k-th distance seeds nothing).
func (m *CutoffMemo) load(key uint64) float64 {
	s := m.slot(key)
	if s.key.Load() != key {
		return math.Inf(1)
	}
	if d := math.Float64frombits(s.bound.Load()); d > 0 && d < math.Inf(1) {
		return d
	}
	return math.Inf(1)
}

// store remembers d under key; an unchanged entry is not rewritten, so
// repeats of one query do not bounce its cache line between cores.
func (m *CutoffMemo) store(key uint64, d float64) {
	s, bits := m.slot(key), math.Float64bits(d)
	if s.key.Load() == key && s.bound.Load() == bits {
		return
	}
	s.bound.Store(bits)
	s.key.Store(key)
}

// CutoffKey hashes what fixes a top-k answer on given data: the query's point
// and weight bits, k, and the set of excluded IDs (order-free: a sum of
// per-ID hashes, so a list naming an ID twice keys apart from the set, which
// costs only a miss; nil excludes nothing). A key is never zero, the key of
// an empty slot.
func CutoffKey(q Query, k int, exclude iter.Seq[string]) uint64 {
	h := mix64(uint64(k)<<32 ^ uint64(len(q.Point)))
	for _, v := range q.Point {
		h = mix64(h ^ math.Float64bits(v))
	}
	for _, v := range q.Weights {
		h = mix64(h ^ math.Float64bits(v))
	}
	var ex uint64
	if exclude != nil {
		for id := range exclude {
			ex += mix64(stringHash(id))
		}
	}
	return mix64(h^ex) | 1
}

// mix64 is SplitMix64's finalizer: a bijection that spreads every input bit
// over the output.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// stringHash is 64-bit FNV-1a.
func stringHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// MemoScan answers one whole logical top-k query through memo. scan runs the
// query's top-k with the given cutoff seed (+Inf seeds nothing) and dist reads
// a result's distance.
//
// The first scan is seeded with the bound remembered under key. Its answer is
// kept only if it holds k results and the k-th is at or under the seed;
// otherwise the query is scanned once more, unseeded. That check is what
// makes any remembered value safe. A scan rejects a bag only on a bound
// strictly above its cutoff, and the cutoff never drops below the seed unless
// some worker holds k exactly scored bags under it. So when the seed is at or
// above the true k-th best t, the scan is the ordinary seeded scan, exact,
// and its k-th is t; when the seed is below t, fewer than k bags lie at or
// under it and every other entry reports a value above it, so the check
// fails. The same holds for a query split over partitions that share one
// seed: a partition whose own k-th best is above the seed still returns
// every bag at or under it. Then the answer's k-th distance (+Inf for a short
// answer) is remembered for the next scan.
//
// A scan error is returned at once, with no rescan. st, when non-nil, counts
// the seeded scans and the rescans.
func MemoScan[R any](memo *CutoffMemo, key uint64, k int, st *PruneStats, dist func(R) float64, scan func(seed float64) ([]R, error)) ([]R, error) {
	inf := math.Inf(1)
	if k <= 0 {
		return scan(inf)
	}
	seed := memo.load(key)
	res, err := scan(seed)
	if err != nil {
		return nil, err
	}
	if seed < inf {
		exact := len(res) >= k && dist(res[k-1]) <= seed
		st.seeded(!exact)
		if !exact {
			if res, err = scan(inf); err != nil {
				return nil, err
			}
		}
	}
	kth := inf
	if len(res) >= k {
		kth = dist(res[k-1])
	}
	memo.store(key, kth)
	return res, nil
}
