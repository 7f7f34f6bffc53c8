// Package index is the flat columnar scoring engine behind the retrieval
// scan. Instead of chasing a pointer per bag and a pointer per instance
// ([]mat.Vector of separately allocated slices), every instance of every bag
// lives in one contiguous row-major []float64 block, with parallel
// bagOffsets/ids/labels slices mapping bags onto row ranges. A query scan is
// then a single linear walk over cache-resident memory.
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
// lengths, and safe against later Deletes because it copies the tombstone
// mask.
package index

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"milret/internal/mat"
)

// Index packs all bag instances into one flat block.
type Index struct {
	dim int
	// data holds all instances row-major: instance r occupies
	// data[r*dim : (r+1)*dim].
	data []float64
	// bagOffsets has one entry per bag plus a sentinel: bag i's instances
	// are rows bagOffsets[i] up to bagOffsets[i+1].
	bagOffsets []int
	ids        []string
	labels     []string
	// boxes packs each bag's axis-aligned instance bounding box (float32,
	// lo/hi interleaved per dimension — mat.PackBagSketch) over the bag's
	// leading boxDims(dim) dimensions: bag i's box is
	// boxes[i*mat.BoxStride*boxDims(dim) : (i+1)*mat.BoxStride*boxDims(dim)].
	// Capping the box at ScreenBoxDims keeps the screen's stream small and
	// sequential — a prefix bound is still a valid lower bound (its dropped
	// terms are non-negative), and in practice rejection decides within the
	// first few kernel blocks. reps packs each bag's float32 centroid
	// representative over all dims: reps[i*dim : (i+1)*dim]. Both are
	// maintained on every build path — Append, FromFlat (so a zero-copy open
	// and a compaction rebuild them for free) — and consumed by the candidate
	// filter every top-k scan runs behind (prune.go).
	boxes []float32
	reps  []float32
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
// The candidate filter streams every live bag's box on each top-k scan, so
// box bytes are the screen's cost floor; measured crossing points (the
// dimension at which a rejected bag's bound passes the cutoff) sit in the
// first few kernel blocks, so dimensions past the cap almost never decide a
// rejection — they would only widen the stream.
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

// Append adds one bag's instances to the flat block. The first append fixes
// the dimensionality; the caller is responsible for ID uniqueness and for
// serializing Append against Snapshot (retrieval.Database holds the lock).
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
	rowStart := x.bagOffsets[len(x.bagOffsets)-1]
	for _, inst := range instances {
		x.data = append(x.data, inst...)
	}
	bi := len(x.ids)
	bd := boxDims(dim)
	x.boxes = append(x.boxes, make([]float32, mat.BoxStride*bd)...)
	x.reps = append(x.reps, make([]float32, dim)...)
	mat.PackBagSketch(dim, x.data[rowStart*dim:], x.boxes[bi*mat.BoxStride*bd:(bi+1)*mat.BoxStride*bd], x.reps[bi*dim:])
	x.bagOffsets = append(x.bagOffsets, x.bagOffsets[len(x.bagOffsets)-1]+len(instances))
	x.ids = append(x.ids, id)
	x.labels = append(x.labels, label)
	return nil
}

// FromFlat constructs an index that adopts an existing row-major instance
// block instead of copying it — the zero-copy open path: the store hands
// over its (possibly memory-mapped) data block and the per-bag instance
// counts, and the index is ready to scan in O(bags) work. The block must
// hold exactly sum(counts) rows of dim floats; every count must be
// positive. Later Appends never mutate the adopted block: growing the data
// slice reallocates (its capacity is clamped to its length).
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
		data:       data[:len(data):len(data)],
	}
	if len(counts) > 0 {
		x.dim = dim
		x.boxes, x.reps = packSketches(dim, data, offsets)
	}
	return x, nil
}

// packSketches builds every bag's bounding box and representative from a
// row-major data block (mat.PackBagSketch per bag) — the FromFlat
// counterpart of the incremental sketch maintenance in Append. This is one
// sequential pass at open time; the sketches are what the candidate filter
// screens bags with, and rebuilding them
// here is why the store format needs no sketch record: a zero-copy open or
// a compaction regenerates them from the rows.
func packSketches(dim int, data []float64, offsets []int) (boxes, reps []float32) {
	nb := len(offsets) - 1
	bd := boxDims(dim)
	boxes = make([]float32, nb*mat.BoxStride*bd)
	reps = make([]float32, nb*dim)
	for i := 0; i < nb; i++ {
		mat.PackBagSketch(dim, data[offsets[i]*dim:offsets[i+1]*dim],
			boxes[i*mat.BoxStride*bd:(i+1)*mat.BoxStride*bd], reps[i*dim:])
	}
	return boxes, reps
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
// valid and immutable while the owner keeps appending: appends grow the
// slices past the snapshot's lengths (or reallocate) but never rewrite the
// elements a snapshot can see. The tombstone mask is copied (it is the one
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
	var boxes, reps []float32
	if n := len(x.ids) * mat.BoxStride * boxDims(x.dim); n > 0 && len(x.boxes) >= n {
		boxes = x.boxes[:n:n]
	}
	if n := len(x.ids) * x.dim; n > 0 && len(x.reps) >= n {
		reps = x.reps[:n:n]
	}
	return Snapshot{
		dim:        x.dim,
		data:       x.data[:len(x.data):len(x.data)],
		boxes:      boxes,
		reps:       reps,
		bagOffsets: x.bagOffsets[:len(x.ids)+1],
		ids:        x.ids[:len(x.ids)],
		labels:     x.labels[:len(x.ids)],
		dead:       dead,
	}
}

// Bytes returns the size of the flat data block in bytes.
func (x *Index) Bytes() int64 { return int64(len(x.data)) * 8 }

// Instances returns the total instance count.
func (x *Index) Instances() int { return x.bagOffsets[len(x.bagOffsets)-1] }

// Snapshot is an immutable scan view of an Index.
type Snapshot struct {
	dim        int
	data       []float64
	boxes      []float32 // per-bag bounding boxes; see Index.boxes
	reps       []float32 // per-bag representatives; see Index.reps
	bagOffsets []int
	ids        []string
	labels     []string
	dead       []uint64
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
// bag either way.
func (s Snapshot) bagDist(q Query, bi int, cutoff float64, prune bool) float64 {
	lo, hi := s.bagOffsets[bi], s.bagOffsets[bi+1]
	return mat.MinWeightedSqDistRows(q.Point, q.Weights, s.data[lo*s.dim:hi*s.dim], cutoff, prune)
}

// normalizeEmpty canonicalizes "no results" to an empty non-nil slice: an
// all-tombstoned or fully excluded snapshot must rank exactly like an
// index that never held the bags, down to the representation (the
// tombstone≡rebuild and flat≡naive property tests compare with
// reflect.DeepEqual, where nil and an empty slice differ, and the tests'
// naive reference produces empty non-nil lists).
func normalizeEmpty(rs []Result) []Result {
	if len(rs) == 0 {
		return []Result{}
	}
	return rs
}

// sharedCutoff is a monotonically tightening distance bound published
// across top-k scan workers: the minimum of every worker's current k-th
// best distance. Any worker's current k-th best is the k-th smallest of a
// subset of the final candidate set, hence an upper bound on the final
// global k-th best — so pruning a bag whose distance strictly exceeds the
// shared bound can never drop a true top-k member. Distances are
// non-negative, so their float64 bit patterns order like the values and a
// CAS min loop on the raw bits suffices.
type sharedCutoff struct{ bits atomic.Uint64 }

func newSharedCutoff() *sharedCutoff {
	c := &sharedCutoff{}
	c.bits.Store(math.Float64bits(math.Inf(1)))
	return c
}

func (c *sharedCutoff) load() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *sharedCutoff) tighten(d float64) {
	bits := math.Float64bits(d)
	for {
		cur := c.bits.Load()
		if bits >= cur {
			return
		}
		if c.bits.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// resultMaxHeap keeps the worst of the current best-k at the root. It is a
// hand-rolled binary heap so the hot scan avoids container/heap's interface
// dispatch and allocation.
type resultMaxHeap []Result

// offer folds one scored bag into a worker's best-k heap and publishes the
// tightened k-th best to the shared cutoff.
func (h *resultMaxHeap) offer(r Result, k int, shared *sharedCutoff) {
	if len(*h) < k {
		h.push(r)
		if len(*h) == k {
			shared.tighten((*h)[0].Dist)
		}
		return
	}
	if worse(r, (*h)[0]) {
		return
	}
	(*h)[0] = r
	h.fixRoot()
	shared.tighten((*h)[0].Dist)
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
