// Package index is the flat columnar scoring engine behind the retrieval
// scan. Instead of chasing a pointer per bag and a pointer per instance
// ([]mat.Vector of separately allocated slices), every instance of every bag
// lives in a row-major []float64 block, with parallel bagOffsets/ids/labels
// slices mapping bags onto row ranges. A query scan is then a linear walk
// over contiguous memory. The index is its owner's only copy of the rows:
// Rows hands a bag's rows out as a view, never a copy.
//
// The rows live in at most two segments. The base is the block FromFlat
// adopted (a zero-copy open's mapped rows, or a compaction's pre-sized
// block); it is never written or grown. Every Append goes to a heap tail
// that follows it, so the first write after an open copies the one bag it
// writes, not the block. A bag never straddles the two: bagDist picks its
// segment with one compare. The bags' sketches split the same way: the
// box tiles FromFlat packs stay the base's, and Append packs into tiles of
// its own, which the candidate filter picks with one compare too. Both
// tails grow by doubling, so a long run of appends copies each tail byte
// about once.
//
// Three optimizations are fused into the top-k scan itself:
//
//   - The candidate filter (prune.go): every bag carries a bounding-box
//     sketch, and a bag whose box lower bound already exceeds the current
//     k-th best distance is skipped without reading a row. The bound never
//     exceeds the exact distance, so the filter too is exact.
//
//   - Early abandonment: the weighted squared distance of an instance is
//     accumulated in small blocks of dimensions, and the partial sum is
//     abandoned as soon as it exceeds both the bag's current best instance
//     and (for top-k scans) the worker's current k-th best distance. Because
//     the distance terms are non-negative whenever the weights are, pruning
//     is exact: rankings and reported distances are bit-identical to the
//     naive full scan (strict-inequality pruning preserves ties, which are
//     broken by ID).
//
//   - Fused per-worker top-k heaps: each scan worker maintains its own
//     size-k max-heap while it walks its bag range, so TopK never
//     materializes the full distance slice before heaping; the worker heaps
//     are merged at the end.
//
// Deletes are tombstones: Delete marks a bag dead in a bitmask and scans
// skip it, leaving its rows as dead weight in the flat block until the owner
// rebuilds the index (retrieval.Database.Compact). Skipping a dead bag is
// semantically identical to excluding it, so tombstones never disturb
// early-abandon cutoffs or the exactness of surviving results.
//
// The Index is a plain mutable structure with no internal locking: the owner
// (retrieval.Database) serializes Append/Delete calls and takes Snapshot
// views under its own lock. A Snapshot is safe to scan concurrently with
// later Appends because appends only ever write past the snapshot's recorded
// lengths, or into a copy of a box tile it holds, and safe against later
// Deletes because it copies the tombstone mask.
package index

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"milret/internal/mat"
	"milret/internal/workloop"
)

// Index packs all bag instances into a base block and a heap tail.
type Index struct {
	dim int
	// base is the adopted block, rows [0, baseRows): instance r occupies
	// base[r*dim : (r+1)*dim]. Nothing writes to it or grows it.
	base     []float64
	baseRows int
	// data is the heap tail every Append writes, rows from baseRows on:
	// instance r ≥ baseRows occupies data[(r-baseRows)*dim : (r-baseRows+1)*dim].
	data []float64
	// baseBags is the number of bags whose rows and sketches are the base's.
	baseBags int
	// bagOffsets has one entry per bag plus a sentinel: bag i's instances
	// are rows bagOffsets[i] up to bagOffsets[i+1].
	bagOffsets []int
	ids        []string
	labels     []string
	// baseBoxes and tailBoxes hold each bag's axis-aligned instance
	// bounding box (float32 lo/hi, mat.PackBagSketch) over the bag's
	// leading boxDims(dim) dimensions, in box tiles of mat.TileRows bags
	// (mat.BoxTileStride): bag i < baseBags is lane i%TileRows of base tile
	// i/TileRows, and bag i ≥ baseBags lane j%TileRows of tail tile
	// j/TileRows, j = i − baseBags, so the tail's tiles start at a tile
	// edge of their own. The base's last tile may end in padding lanes,
	// which no scan reads as bags. tailBoxes holds the tail's full tiles;
	// a partly filled last tile is tailPart (nil when there is none), and
	// Append writes a lane of it only while no snapshot can hold it
	// (partShared): a snapshot's screen loads every lane of a tile, so a
	// write into a tile it holds would race it. The boxes are maintained
	// on every build path — FromFlat packs the base's (so a zero-copy open
	// and a compaction rebuild them for free) and nothing appends to them;
	// Append packs the tail's — and screened by every top-k scan
	// (prune.go).
	baseBoxes  []float32
	tailBoxes  []float32
	tailPart   []float32
	partShared atomic.Bool
	// dead is a tombstone bitmask over bags (bit i set = bag i deleted).
	// Dead bags keep their rows in the flat block — scans skip them — until
	// the owner rebuilds the index (retrieval.Database.Compact). nil while
	// nothing has been deleted, so the common append-only case pays nothing.
	dead     []uint64
	nDead    int
	deadRows int
	// labelsShared marks the labels slice as aliased by at least one
	// snapshot, so UpdateLabel must clone it before mutating an element
	// (copy-on-write; appends are always safe because snapshots never read
	// past their recorded length). Atomic because Snapshot runs under the
	// owner's read lock: concurrent snapshotters may set it simultaneously,
	// while UpdateLabel inspects it only under the owner's write lock.
	labelsShared atomic.Bool
}

// ScreenBoxDims caps how many leading dimensions a bag's screen box covers.
// The candidate filter screens every live bag's box on each top-k scan, so
// box bytes bound the screen's stream, and a wider box rejects more bags
// but costs more per tile. On the warm_scan corpus, at the final cutoff,
// 44 % of bags are rejected within 16 dimensions, 79 % within 36 and 90 %
// within 64; the other 10 % are not (7.8 % are not even over all 100).
// 64 is where the measured scan time sits lowest, and a wider box would
// add bytes per bag (CHANGES.md has the table at 32, 64 and 100).
const ScreenBoxDims = 64

// boxDims returns how many leading dimensions the screen boxes of a
// dim-dimensional index cover.
func boxDims(dim int) int {
	if dim < ScreenBoxDims {
		return dim
	}
	return ScreenBoxDims
}

// New returns an empty index.
func New() *Index {
	return &Index{bagOffsets: []int{0}}
}

// Append adds one bag's instances to the heap tail; the adopted base block
// is never touched, so an index opened zero-copy copies only the bags
// written after the open. The first append fixes the dimensionality; the
// caller is responsible for ID uniqueness and for serializing Append against
// Snapshot (retrieval.Database holds the lock).
func (x *Index) Append(id, label string, instances []mat.Vector) error {
	if len(instances) == 0 {
		return fmt.Errorf("index: bag %q has no instances", id)
	}
	dim := len(instances[0])
	if dim == 0 {
		return fmt.Errorf("index: bag %q has zero-dimensional instances", id)
	}
	if x.dim != 0 && dim != x.dim {
		return fmt.Errorf("index: bag %q dim %d, index dim %d", id, dim, x.dim)
	}
	// Validate everything before touching the flat block so a rejected bag
	// leaves no partial rows behind.
	for i, inst := range instances {
		if len(inst) != dim {
			return fmt.Errorf("index: bag %q instance %d dim %d, want %d", id, i, len(inst), dim)
		}
	}
	if x.dim == 0 {
		x.dim = dim
	}
	rows := grow(&x.data, len(instances)*dim)
	for i, inst := range instances {
		copy(rows[i*dim:], inst)
	}
	x.appendBox(dim, rows)
	x.bagOffsets = append(x.bagOffsets, x.bagOffsets[len(x.bagOffsets)-1]+len(instances))
	x.ids = append(x.ids, id)
	x.labels = append(x.labels, label)
	return nil
}

// appendBox packs the box of the bag being appended, whose rows are rows,
// into the next lane of the tail's tiles. The first lane of a tile starts a
// fresh tailPart, and so does a lane of a tile some snapshot holds: it goes
// into a copy, so no lane a held snapshot screens is ever written. A full
// tile joins tailBoxes.
func (x *Index) appendBox(dim int, rows []float64) {
	bd := boxDims(dim)
	lane := (len(x.ids) - x.baseBags) % mat.TileRows
	if lane == 0 || x.partShared.Load() {
		part := make([]float32, mat.BoxTileStride*bd)
		copy(part, x.tailPart)
		x.tailPart = part
		x.partShared.Store(false)
	}
	mat.PackBagSketchLane(dim, rows, x.tailPart, lane)
	if lane == mat.TileRows-1 {
		copy(grow(&x.tailBoxes, len(x.tailPart)), x.tailPart)
		x.tailPart = nil
	}
}

// grow extends *s by n elements and returns them. When the capacity runs
// out it at least doubles it, whatever the element count: append's growth
// falls towards 1.25× for large slices, which copies a long tail several
// times over. The elements a Snapshot can see are never rewritten, only
// copied to the new array.
func grow[T float32 | float64](s *[]T, n int) []T {
	old := len(*s)
	if old+n > cap(*s) {
		next := make([]T, old, max(old+n, 2*cap(*s)))
		copy(next, *s)
		*s = next
	}
	*s = (*s)[:old+n]
	return (*s)[old:]
}

// FromFlat constructs an index that adopts an existing row-major instance
// block instead of copying it — the zero-copy open path: the store hands
// over its (possibly memory-mapped) data block and the per-bag instance
// counts, and the index is ready to scan after no decode, no copy and one
// sequential pass over the values that builds the per-bag sketches
// (packSketches). The block must hold exactly sum(counts) rows of dim
// floats; every count must be positive. The block becomes the index's base
// segment: nothing writes to it or grows it, and later Appends go to a
// separate heap tail.
func FromFlat(dim int, data []float64, counts []int, ids, labels []string) (*Index, error) {
	if len(counts) != len(ids) || len(counts) != len(labels) {
		return nil, fmt.Errorf("index: %d counts, %d ids, %d labels", len(counts), len(ids), len(labels))
	}
	if dim <= 0 && (len(data) > 0 || len(counts) > 0) {
		return nil, fmt.Errorf("index: non-positive dim %d for non-empty block", dim)
	}
	offsets := make([]int, len(counts)+1)
	for i, c := range counts {
		if c <= 0 {
			return nil, fmt.Errorf("index: bag %q has instance count %d", ids[i], c)
		}
		offsets[i+1] = offsets[i] + c
	}
	if offsets[len(counts)]*dim != len(data) {
		return nil, fmt.Errorf("index: block holds %d floats, %d bags × dim %d need %d",
			len(data), len(counts), dim, offsets[len(counts)]*dim)
	}
	x := &Index{
		bagOffsets: offsets,
		ids:        append([]string(nil), ids...),
		labels:     append([]string(nil), labels...),
		base:       data[:len(data):len(data)],
		baseRows:   offsets[len(counts)],
		baseBags:   len(counts),
	}
	if len(counts) > 0 {
		x.dim = dim
		x.baseBoxes = packSketches(dim, data, offsets)
	}
	return x, nil
}

// packSketches builds every bag's bounding box from a row-major data block
// (mat.PackBagSketchLane per bag) into box tiles — the FromFlat counterpart of
// Append's appendBox. It passes over the block once, at open time, in
// chunks of whole tiles claimed by one worker per CPU (each bag's box
// depends on its rows alone, so the split moves no bit); the boxes are what
// the candidate filter screens bags with, and rebuilding them here is why
// the store format needs no sketch record: a zero-copy open or a compaction
// regenerates them from the rows.
func packSketches(dim int, data []float64, offsets []int) []float32 {
	nb := len(offsets) - 1
	bd := boxDims(dim)
	tileLen := mat.BoxTileStride * bd
	tiles := make([]float32, mat.TileLanes(nb)/mat.TileRows*tileLen)
	const chunk = 1024 // bags per claim, whole tiles
	workloop.Run((nb+chunk-1)/chunk, runtime.GOMAXPROCS(0), func(_ int, claim func() (int, bool)) {
		for c, ok := claim(); ok; c, ok = claim() {
			for i := c * chunk; i < min(nb, (c+1)*chunk); i++ {
				t := i / mat.TileRows * tileLen
				mat.PackBagSketchLane(dim, data[offsets[i]*dim:offsets[i+1]*dim], tiles[t:t+tileLen], i%mat.TileRows)
			}
		}
	})
	return tiles
}

// Delete tombstones bag i: its rows stay in the flat block but every scan
// skips it from now on. Deleting an already-dead or out-of-range bag is an
// error. The caller serializes Delete against Snapshot exactly like Append
// (retrieval.Database holds the lock); snapshots taken before the delete
// keep seeing the bag (they copied the mask), snapshots taken after do not.
func (x *Index) Delete(i int) error {
	if i < 0 || i >= len(x.ids) {
		return fmt.Errorf("index: delete of bag %d outside [0, %d)", i, len(x.ids))
	}
	if x.isDead(i) {
		return fmt.Errorf("index: bag %q (%d) already deleted", x.ids[i], i)
	}
	if need := len(x.ids)/64 + 1; len(x.dead) < need {
		x.dead = append(x.dead, make([]uint64, need-len(x.dead))...)
	}
	x.dead[i>>6] |= 1 << uint(i&63)
	x.nDead++
	x.deadRows += x.bagOffsets[i+1] - x.bagOffsets[i]
	return nil
}

// UpdateLabel swaps bag i's label in place — the metadata-only counterpart
// of a tombstone-and-re-append Update: no instance rows move, no dead weight
// accumulates. Snapshots alias the labels slice, so the first label update
// after a Snapshot clones it (O(bags) string headers) and later updates
// mutate the clone directly; snapshots taken before the update keep the old
// label, ones taken after see the new one.
func (x *Index) UpdateLabel(i int, label string) error {
	if i < 0 || i >= len(x.ids) {
		return fmt.Errorf("index: label update of bag %d outside [0, %d)", i, len(x.ids))
	}
	if x.isDead(i) {
		return fmt.Errorf("index: label update of deleted bag %q (%d)", x.ids[i], i)
	}
	if x.labelsShared.Load() {
		x.labels = append([]string(nil), x.labels...)
		x.labelsShared.Store(false)
	}
	x.labels[i] = label
	return nil
}

func (x *Index) isDead(i int) bool {
	w := i >> 6
	return w < len(x.dead) && x.dead[w]&(1<<uint(i&63)) != 0
}

// IsDead reports whether bag i has been tombstoned.
func (x *Index) IsDead(i int) bool { return x.isDead(i) }

// Live returns the number of non-deleted bags.
func (x *Index) Live() int { return len(x.ids) - x.nDead }

// Dead returns the number of tombstoned bags.
func (x *Index) Dead() int { return x.nDead }

// DeadInstances returns the number of instance rows belonging to tombstoned
// bags — the dead weight a Compact would reclaim from the flat block.
func (x *Index) DeadInstances() int { return x.deadRows }

// Snapshot returns a scan view of the current contents. The view stays
// valid and immutable while the owner keeps appending: the base block is
// never written, and appends grow the tail and the other slices past the
// snapshot's lengths (or reallocate) but never rewrite the elements a
// snapshot can see — the tail's partly filled box tile included, which the
// next Append copies before it writes a lane (appendBox). The tombstone
// mask is copied (it is the one
// piece of state Delete mutates in place), so later deletes never affect an
// already-taken snapshot.
func (x *Index) Snapshot() Snapshot {
	var dead []uint64
	if x.nDead > 0 {
		// Words past len(x.dead) are implicitly zero (bags appended since the
		// last delete are alive), so copying the mask as-is is sufficient.
		dead = append(dead, x.dead...)
	}
	x.labelsShared.Store(true)
	if x.tailPart != nil {
		x.partShared.Store(true)
	}
	return Snapshot{
		dim:        x.dim,
		base:       x.base,
		baseRows:   x.baseRows,
		data:       x.data[:len(x.data):len(x.data)],
		baseBags:   x.baseBags,
		baseBoxes:  x.baseBoxes,
		tailBoxes:  x.tailBoxes[:len(x.tailBoxes):len(x.tailBoxes)],
		tailPart:   x.tailPart,
		bagOffsets: x.bagOffsets[:len(x.ids)+1],
		ids:        x.ids[:len(x.ids)],
		labels:     x.labels[:len(x.ids)],
		dead:       dead,
	}
}

// Rows returns bag i's instance rows as a capacity-clipped view. It stays
// valid after later Appends: a growing tail leaves its old array as it was.
func (x *Index) Rows(i int) []float64 {
	return bagRows(x.base, x.data, x.baseRows, x.dim, x.bagOffsets[i], x.bagOffsets[i+1])
}

// bagRows picks the segment of rows [lo, hi) with one compare: a bag never
// straddles the base and the tail.
func bagRows(base, data []float64, baseRows, dim, lo, hi int) []float64 {
	if lo >= baseRows {
		base, lo, hi = data, lo-baseRows, hi-baseRows
	}
	return base[lo*dim : hi*dim : hi*dim]
}

// Bytes returns the size of the instance rows in bytes, base and tail.
func (x *Index) Bytes() int64 { return int64(len(x.base)+len(x.data)) * 8 }

// Instances returns the total instance count.
func (x *Index) Instances() int { return x.bagOffsets[len(x.bagOffsets)-1] }

// Snapshot is an immutable scan view of an Index.
type Snapshot struct {
	dim        int
	base       []float64 // see Index.base
	baseRows   int
	data       []float64 // see Index.data
	baseBags   int       // see Index.baseBags
	baseBoxes  []float32 // box tiles; see Index.baseBoxes
	tailBoxes  []float32 // see Index.tailBoxes
	tailPart   []float32 // see Index.tailPart
	bagOffsets []int
	ids        []string
	labels     []string
	dead       []uint64
}

// boxTile returns the box tile whose lane 0 is bag i, a tile edge of its
// segment: the base's, the tail's full tiles, or the tail's partial last
// tile — the pick bagRows makes for rows, by one more compare.
func (s *Snapshot) boxTile(i int) []float32 {
	tileLen := mat.BoxTileStride * boxDims(s.dim)
	boxes := s.baseBoxes
	if i >= s.baseBags {
		boxes, i = s.tailBoxes, i-s.baseBags
	}
	t := i / mat.TileRows * tileLen
	if t == len(boxes) {
		return s.tailPart // only the tail's tiles can run out before its bags
	}
	return boxes[t : t+tileLen : t+tileLen]
}

// Len returns the number of bags in the snapshot, tombstoned ones included.
func (s Snapshot) Len() int { return len(s.ids) }

// isDead reports whether bag i is tombstoned in this snapshot. Skipping a
// dead bag is exactly like excluding it: pruning cutoffs only ever tighten
// from bags that produce results, so dropping a bag can never disturb the
// distances or order of the survivors.
func (s *Snapshot) isDead(i int) bool {
	w := i >> 6
	return w < len(s.dead) && s.dead[w]&(1<<uint(i&63)) != 0
}

// skip reports whether bag i is out of this scan: tombstoned or excluded.
// Pointer receiver: this sits on the per-bag hot path of every scan, and a
// value receiver would copy the whole snapshot header each call.
func (s *Snapshot) skip(i int, exclude map[string]bool) bool {
	return s.isDead(i) || exclude[s.ids[i]]
}

// Query is the concept geometry a scan scores against: distance of an
// instance x is Σ_k Weights_k (Point_k − x_k)².
type Query struct {
	Point   []float64
	Weights []float64
}

func (q Query) check(dim int) {
	if len(q.Point) != dim || len(q.Weights) != dim {
		panic(fmt.Sprintf("index: query dims point=%d weights=%d, index dim %d",
			len(q.Point), len(q.Weights), dim))
	}
}

// prunable reports whether partial distance sums are monotone, i.e. all
// weights are non-negative. Negative weights disable early abandonment (the
// scan stays correct, just unpruned).
func (q Query) prunable() bool {
	for _, w := range q.Weights {
		if w < 0 {
			return false
		}
	}
	return true
}

// Result is one scored bag.
type Result struct {
	ID    string
	Label string
	Dist  float64
}

// worse reports whether a ranks strictly after b (greater distance, ID tie
// break) — the one result order of the scan path.
func worse(a, b Result) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return worse(rs[j], rs[i]) })
}

// bagDist returns the minimum weighted squared distance from any instance of
// bag bi to the query point, evaluating each instance through the shared
// blocked kernel (mat.MinWeightedSqDistRows) and abandoning once the partial
// sum strictly exceeds thr (the min of the bag's current best instance and
// the caller's k-th best cutoff). Using the one kernel everywhere is what
// keeps flat and naive rankings bit-identical by construction.
//
// Exactness contract: when the true bag distance is ≤ cutoff, the returned
// value is bit-identical to the unpruned scan (same accumulation order, and
// strict-> pruning can never drop an instance whose full distance ties or
// beats the threshold). When the true distance exceeds cutoff, the returned
// value may overshoot but is still > cutoff, so a top-k scan discards the
// bag either way. Pointer receiver for the same reason as skip.
func (s *Snapshot) bagDist(q Query, bi int, cutoff float64, prune bool) float64 {
	rows := bagRows(s.base, s.data, s.baseRows, s.dim, s.bagOffsets[bi], s.bagOffsets[bi+1])
	return mat.MinWeightedSqDistRows(q.Point, q.Weights, rows, cutoff, prune)
}

// normalizeEmpty canonicalizes "no results" to an empty non-nil slice: an
// all-tombstoned or fully excluded snapshot must rank exactly like an
// index that never held the bags, down to the representation
// (internal/retrieval's TestScanSpine compares as reflect.DeepEqual does,
// where nil and an empty slice differ, and its naive reference produces
// empty non-nil lists).
func normalizeEmpty(rs []Result) []Result {
	if len(rs) == 0 {
		return []Result{}
	}
	return rs
}

// resultMaxHeap keeps the worst of the current best-k at the root. It is a
// hand-rolled binary heap so the hot scan avoids container/heap's interface
// dispatch and allocation.
type resultMaxHeap []Result

// cutoff returns the tightest published k-th best, or this worker's own when
// its heap is full and tighter. Equality is never pruned, preserving ID
// tie-breaks at the top-k boundary. A bag pruned against it may report an
// overshot (but still exact-per-instance) distance > cutoff; such entries
// cannot displace a true top-k member in the final merge.
func (h resultMaxHeap) cutoff(k int, shared *Cutoff) float64 {
	c := shared.Load()
	if len(h) == k && h[0].Dist < c {
		c = h[0].Dist
	}
	return c
}

// offer folds one scored bag into a worker's best-k heap and publishes the
// tightened k-th best to the shared cutoff.
func (h *resultMaxHeap) offer(r Result, k int, shared *Cutoff) {
	if len(*h) < k {
		h.push(r)
		if len(*h) == k {
			shared.Tighten((*h)[0].Dist)
		}
		return
	}
	if worse(r, (*h)[0]) {
		return
	}
	(*h)[0] = r
	h.fixRoot()
	shared.Tighten((*h)[0].Dist)
}

func (h *resultMaxHeap) push(r Result) {
	*h = append(*h, r)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !worse((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h resultMaxHeap) fixRoot() {
	n := len(h)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && worse(h[l], h[largest]) {
			largest = l
		}
		if r < n && worse(h[r], h[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}
