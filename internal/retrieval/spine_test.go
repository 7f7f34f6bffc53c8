package retrieval

// The scan spine: one model-based harness for every bit-identity property of
// the scan stack (this package over internal/index). A case drives a
// Database through its exported API with a random op sequence — Add,
// Update, UpdateLabel, Delete, a whole Compact, a one-shard compaction and
// an auto-compaction — while a model applies the same ops to a plain
// ID → (label, instances) map. After every op the database must read back as
// the model, and every scan must equal, under reflect.DeepEqual, the one
// reference: the model's rows scored through mat.WeightedSqDist, min over
// the bag, ordered by (distance, ID). The reference never reads the
// database, so 1 shard ≡ N, exhaustive ≡ screened top-k, tombstone ≡
// rebuild, flat ≡ append and batch ≡ single are all one statement,
// "database ≡ model", checked in every configuration and under every
// kernel tier the host has.
//
// A concurrent case runs writer goroutines over disjoint IDs while readers
// query, and holds each read to snapshot()'s per-shard-atomic contract: a
// row it returns is its item's model row at some version inside the read's
// window, and an item live and unchanged across the window is in it.

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"milret/internal/index"
	"milret/internal/mat"
	"milret/internal/mil"
)

// spineConfig is one case: a seed, the database's shape and the op mix.
type spineConfig struct {
	seed    int64
	shards  int
	par     int // Options.Parallelism of every scan
	dim     int
	n       int    // items present at construction
	maxInst int    // instances per bag, 1..maxInst
	ops     int    // ops per sequence (per writer when writers > 0)
	mix     string // op kinds drawn uniformly, as spineOp.kind letters
	via     byte   // 'a' (or 0) Add, 'f' NewDatabaseFromFlat, 'F' NewDatabaseFromFlats
	dup     int    // one bag in dup copies a live bag (0: one in 5)
	poison  bool   // one bag in 7 holds 1e308, past float32, in its last dimension
	writers int    // > 0: writer goroutines race readers (runConcurrent)
}

// spineCases is the fixed seed list. Each case is named after the property
// it was written for; every case runs every check.
var spineCases = []struct {
	name string
	cfg  spineConfig
}{
	{"rank_naive", spineConfig{seed: 1, shards: 1, par: 8, dim: 37, n: 50, maxInst: 4, ops: 4, mix: "ad"}},
	{"topk_naive", spineConfig{seed: 2, shards: 1, par: 3, dim: 40, n: 60, maxInst: 4, ops: 4, mix: "ad"}},
	{"batch_per_query", spineConfig{seed: 3, shards: 1, par: 8, dim: 13, n: 40, maxInst: 4, ops: 6, mix: "aul"}},
	{"batch_edges", spineConfig{seed: 4, shards: 1, par: 2, dim: 6, n: 8, maxInst: 3, ops: 12, mix: "d"}},
	{"flat_adopts_block", spineConfig{seed: 5, shards: 1, par: 3, dim: 9, n: 25, maxInst: 4, ops: 6, mix: "a", via: 'f'}},
	{"pruned_batch_grid", spineConfig{seed: 6, shards: 3, par: 2, dim: 20, n: 60, maxInst: 3, ops: 5, mix: "ad"}},
	{"pruned_cross_shard_ties", spineConfig{seed: 7, shards: 3, par: 3, dim: 2, n: 6, maxInst: 1, ops: 4, mix: "a", via: 'F', dup: 1}},
	{"pruned_flat_mutations", spineConfig{seed: 8, shards: 1, par: 8, dim: 6, n: 40, maxInst: 3, ops: 10, mix: "ddda", via: 'f'}},
	{"seeded_large_poisoned", spineConfig{seed: 9, shards: 4, par: 3, dim: 6, n: 600, maxInst: 3, ops: 1, mix: "da", poison: true}},
	{"partitions", spineConfig{seed: 10, shards: 4, par: 2, dim: 6, n: 150, maxInst: 3, ops: 2, mix: "d", poison: true}},
	{"empty_shards", spineConfig{seed: 11, shards: 3, par: 2, dim: 1, n: 0, maxInst: 2, ops: 8, mix: "ad", via: 'F'}},
	{"segments", spineConfig{seed: 12, shards: 1, par: 3, dim: 20, n: 30, maxInst: 4, ops: 9, mix: "aadl", via: 'f'}},
	{"sharded_single_block", spineConfig{seed: 13, shards: 5, par: 8, dim: 20, n: 60, maxInst: 3, ops: 8, mix: "d"}},
	{"sharded_cross_shard_ties", spineConfig{seed: 14, shards: 2, par: 3, dim: 2, n: 6, maxInst: 1, ops: 2, mix: "a", dup: 1}},
	{"delete_rebuild", spineConfig{seed: 15, shards: 1, par: 2, dim: 20, n: 40, maxInst: 4, ops: 10, mix: "ddc"}},
	{"rank_ordering", spineConfig{seed: 16, shards: 1, par: 1, dim: 2, n: 3, maxInst: 1, ops: 1, mix: "a"}},
	{"rank_min_over_instances", spineConfig{seed: 17, shards: 1, par: 2, dim: 2, n: 6, maxInst: 6, ops: 2, mix: "a"}},
	{"rank_deterministic_ties", spineConfig{seed: 18, shards: 1, par: 1, dim: 2, n: 3, maxInst: 1, ops: 2, mix: "a", dup: 1}},
	{"rank_excludes", spineConfig{seed: 19, shards: 1, par: 1, dim: 1, n: 4, maxInst: 1, ops: 2, mix: "a"}},
	{"topk_matches_rank", spineConfig{seed: 20, shards: 1, par: 8, dim: 4, n: 50, maxInst: 3, ops: 2, mix: "a"}},
	{"topk_zero", spineConfig{seed: 21, shards: 1, par: 1, dim: 1, n: 1, maxInst: 1, ops: 1, mix: "l"}},
	{"empty_database", spineConfig{seed: 22, shards: 1, par: 1, dim: 1, n: 0, maxInst: 1, ops: 4, mix: "ad"}},
	{"parallel_serial", spineConfig{seed: 23, shards: 1, par: 8, dim: 3, n: 40, maxInst: 2, ops: 4, mix: "au"}},
	{"rank_monotone", spineConfig{seed: 24, shards: 1, par: 2, dim: 2, n: 30, maxInst: 3, ops: 4, mix: "ul"}},
	{"flat_rank_naive", spineConfig{seed: 25, shards: 1, par: 3, dim: 35, n: 50, maxInst: 4, ops: 4, mix: "ad"}},
	{"flat_topk_naive", spineConfig{seed: 26, shards: 1, par: 2, dim: 33, n: 50, maxInst: 4, ops: 4, mix: "ad"}},
	{"batch_matches_topk", spineConfig{seed: 27, shards: 1, par: 3, dim: 30, n: 40, maxInst: 3, ops: 6, mix: "al"}},
	{"batch_empty", spineConfig{seed: 28, shards: 1, par: 1, dim: 2, n: 1, maxInst: 1, ops: 1, mix: "d"}},
	{"dense_ties", spineConfig{seed: 29, shards: 1, par: 2, dim: 2, n: 4, maxInst: 2, ops: 2, mix: "a", dup: 1}},
	{"sharded_single_shard", spineConfig{seed: 30, shards: 4, par: 3, dim: 24, n: 40, maxInst: 4, ops: 10, mix: "aduls"}},
	{"sharded_stats", spineConfig{seed: 31, shards: 4, par: 2, dim: 6, n: 64, maxInst: 2, ops: 6, mix: "ddds"}},
	{"recall_exact", spineConfig{seed: 32, shards: 3, par: 8, dim: 30, n: 50, maxInst: 4, ops: 5, mix: "ddc"}},
	{"mutated_rebuild", spineConfig{seed: 33, shards: 1, par: 3, dim: 24, n: 40, maxInst: 4, ops: 10, mix: "dduac"}},
	{"flats_tail", spineConfig{seed: 34, shards: 5, par: 3, dim: 11, n: 50, maxInst: 3, ops: 10, mix: "aadulcsx", via: 'F'}},
	{"auto_compaction", spineConfig{seed: 35, shards: 2, par: 2, dim: 5, n: 30, maxInst: 3, ops: 12, mix: "xadu"}},
	{"empty_snapshot", spineConfig{seed: 42, shards: 1, par: 2, dim: 3, n: 0, maxInst: 2, ops: 2, mix: "d"}},
	{"exclude_all", spineConfig{seed: 43, shards: 1, par: 3, dim: 4, n: 8, maxInst: 2, ops: 2, mix: "l"}},
	{"topk_nonpositive_k", spineConfig{seed: 44, shards: 1, par: 1, dim: 4, n: 5, maxInst: 2, ops: 1, mix: "u"}},
	{"mixed_empty_shards", spineConfig{seed: 45, shards: 5, par: 4, dim: 1, n: 1, maxInst: 1, ops: 3, mix: "a"}},
	{"append_after_delete", spineConfig{seed: 46, shards: 1, par: 2, dim: 1, n: 70, maxInst: 1, ops: 5, mix: "dda"}},
	{"by_id", spineConfig{seed: 47, shards: 2, par: 1, dim: 1, n: 10, maxInst: 2, ops: 6, mix: "adl"}},
	{"compact_reclaims", spineConfig{seed: 48, shards: 1, par: 2, dim: 2, n: 60, maxInst: 2, ops: 8, mix: "ddc"}},
	{"pruned_concurrent", spineConfig{seed: 36, shards: 1, par: 2, dim: 5, n: 30, maxInst: 1, ops: 40, mix: "ad", writers: 1}},
	{"concurrent_adds", spineConfig{seed: 37, shards: 1, par: 3, dim: 12, n: 1, maxInst: 3, ops: 20, mix: "a", writers: 4}},
	{"concurrent_reads", spineConfig{seed: 38, shards: 1, par: 1, dim: 1, n: 0, maxInst: 1, ops: 30, mix: "a", writers: 4}},
	{"concurrent_labels", spineConfig{seed: 39, shards: 3, par: 2, dim: 4, n: 30, maxInst: 1, ops: 40, mix: "alll", writers: 2}},
	{"concurrent_mutations", spineConfig{seed: 40, shards: 1, par: 3, dim: 8, n: 40, maxInst: 1, ops: 24, mix: "aduulc", writers: 4}},
	{"concurrent_flats", spineConfig{seed: 41, shards: 4, par: 2, dim: 7, n: 40, maxInst: 3, ops: 24, mix: "aadulcs", via: 'F', writers: 3}},
	{"memo_repeat", spineConfig{seed: 49, shards: 1, par: 2, dim: 8, n: 40, maxInst: 3, ops: 16, mix: "rrad"}},
	{"memo_repeat_sharded", spineConfig{seed: 50, shards: 3, par: 3, dim: 20, n: 60, maxInst: 4, ops: 16, mix: "rrduc", via: 'F'}},
	{"memo_repeat_ties_poisoned", spineConfig{seed: 51, shards: 2, par: 1, dim: 3, n: 30, maxInst: 2, ops: 16, mix: "rra", dup: 2, poison: true}},
}

// TestScanSpine runs every case of the seed list: a sequential case once per
// kernel tier (a tier the host lacks is a named skip), a concurrent case once
// under the default tier — its contract is about snapshots, which no tier
// touches, while the sequential cases pin every tier's bits. A failure
// prints the seed, the configuration, the check and a greedily shrunk op
// list.
func TestScanSpine(t *testing.T) {
	for _, c := range spineCases {
		t.Run(c.name, func(t *testing.T) {
			if c.cfg.writers > 0 {
				if f := runConcurrent(c.cfg); f != "" {
					t.Fatalf("seed %d, config %+v\n%s", c.cfg.seed, c.cfg, f)
				}
				return
			}
			for _, tier := range []string{"scalar", "avx2", "avx512"} {
				t.Run(tier, func(t *testing.T) {
					prev := mat.Kernel()
					if err := mat.SetKernel(tier); err != nil {
						t.Skipf("no %s tier on this host or build: %v", tier, err)
					}
					defer mat.SetKernel(prev)
					ops := c.cfg.genOps()
					if f := runSpine(c.cfg, ops); f != nil {
						t.Fatal(shrink(c.cfg, ops, f))
					}
				})
			}
		})
	}
}

// FuzzScanSpine runs one random sequence per input under the default tier:
// shape picks the configuration, seed the items, ops and queries.
func FuzzScanSpine(f *testing.F) {
	for i := uint32(0); i < 8; i++ {
		f.Add(int64(i), i*2654435761)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint32) {
		pick := func(n int) int {
			v := int(shape % uint32(n))
			shape /= uint32(n)
			return v
		}
		cfg := spineConfig{seed: seed, shards: 1 + pick(5), par: []int{1, 2, 3, 8}[pick(4)],
			dim: 1 + pick(24), n: pick(40), maxInst: 1 + pick(4), ops: 1 + pick(16),
			mix: "aadullcsxr", via: "aafF"[pick(4)], dup: 1 + pick(6), poison: pick(4) == 0}
		if cfg.via == 'f' {
			cfg.shards = 1
		}
		ops := cfg.genOps()
		if f := runSpine(cfg, ops); f != nil {
			t.Fatal(shrink(cfg, ops, f))
		}
	})
}

// spineRow is what one live item must read back as.
type spineRow struct {
	label string
	insts []mat.Vector
	names []string
}

// spineModel is the harness's whole picture of a database: ID → row, the
// live IDs in insertion order, every ID ever stored, and each shard's
// tombstones not yet compacted away.
type spineModel struct {
	rows     map[string]spineRow
	order    []string
	seen     []string
	known    map[string]bool // seen as a set
	shards   int
	dim      int // fixed by the first stored item, as Database.Dim is
	deadBags []int
	deadRows []int
}

func newSpineModel(shards int) *spineModel {
	return &spineModel{rows: map[string]spineRow{}, known: map[string]bool{}, shards: shards,
		deadBags: make([]int, shards), deadRows: make([]int, shards)}
}

// spineOp is one mutation. kind is 'a' Add, 'u' Update, 'l' UpdateLabel,
// 'd' Delete, 'c' Compact, 's' one-shard compaction, 'x' auto-compaction
// (Add a bag of compactMinDeadRows rows under a fresh ID, then Delete it),
// or 'r' repeat a query around one change (checker.repeat).
type spineOp struct {
	kind  byte
	id    string
	row   spineRow
	shard int
	qseed int64 // seeds the scans checked after this op
}

func (op spineOp) String() string {
	return fmt.Sprintf("%c %s %q, %d instances, shard %d", op.kind, op.id, op.row.label, len(op.row.insts), op.shard)
}

func (op spineOp) item() Item {
	return Item{ID: op.id, Label: op.row.label,
		Bag: &mil.Bag{ID: op.id, Instances: op.row.insts, Names: op.row.names}}
}

// apply runs op against db.
func (op spineOp) apply(db *Database, dim int) error {
	switch op.kind {
	case 'a':
		return db.Add(op.item())
	case 'u':
		return db.Update(op.item())
	case 'l':
		return db.UpdateLabel(op.id, op.row.label)
	case 'd':
		return db.Delete(op.id)
	case 'c':
		db.Compact()
	case 's':
		compactShard(db, op.shard)
	case 'x':
		big := op
		big.row.insts = make([]mat.Vector, compactMinDeadRows)
		for i := range big.row.insts {
			big.row.insts[i] = mat.NewVector(dim).Fill(float64(i))
		}
		if err := db.Add(big.item()); err != nil {
			return err
		}
		return db.Delete(op.id)
	}
	return nil
}

// apply runs op against the model and reports whether the database must
// refuse it.
func (m *spineModel) apply(op spineOp, dim int) (wantErr bool) {
	old, live := m.rows[op.id]
	s := ShardIndexFor(op.id, m.shards)
	switch {
	case op.kind == 'a' && live, strings.ContainsRune("uld", rune(op.kind)) && !live:
		return true
	case op.kind == 'a':
		m.store(op.id, op.row, dim)
	case op.kind == 'u':
		m.remove(op.id)
		m.store(op.id, op.row, dim)
		m.tombstone(s, len(old.insts))
	case op.kind == 'l':
		old.label = op.row.label
		m.rows[op.id] = old
	case op.kind == 'd':
		m.remove(op.id)
		m.tombstone(s, len(old.insts))
	case op.kind == 'c':
		clear(m.deadBags)
		clear(m.deadRows)
	case op.kind == 's':
		m.deadBags[op.shard], m.deadRows[op.shard] = 0, 0
	case op.kind == 'x':
		m.dim = dim
		m.see(op.id)
		m.tombstone(s, compactMinDeadRows)
	}
	return false
}

func (m *spineModel) store(id string, row spineRow, dim int) {
	m.see(id)
	m.rows[id] = row
	m.order = append(m.order, id)
	m.dim = dim
}

func (m *spineModel) see(id string) {
	if !m.known[id] {
		m.known[id] = true
		m.seen = append(m.seen, id)
	}
}

func (m *spineModel) remove(id string) {
	delete(m.rows, id)
	for i, o := range m.order {
		if o == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

// tombstone records a dead bag of rows in shard s, then compacts the shard
// when the database's threshold says it compacts itself.
func (m *spineModel) tombstone(s, rows int) {
	m.deadBags[s]++
	m.deadRows[s] += rows
	live := 0
	for id, row := range m.rows {
		if ShardIndexFor(id, m.shards) == s {
			live += len(row.insts)
		}
	}
	if dead := m.deadRows[s]; dead >= compactMinDeadRows && float64(dead) >= compactFraction*float64(live+dead) {
		m.deadBags[s], m.deadRows[s] = 0, 0
	}
}

func (m *spineModel) item(id string) Item {
	return spineOp{id: id, row: m.rows[id]}.item()
}

// stats is ShardStats as the model sees it.
func (m *spineModel) stats() []ShardStats {
	rows := make([]ShardStats, m.shards)
	for _, id := range m.order {
		s := ShardIndexFor(id, m.shards)
		rows[s].Images++
		rows[s].Instances += len(m.rows[id].insts)
	}
	for s := range rows {
		rows[s].DeadImages, rows[s].DeadInstances = m.deadBags[s], m.deadRows[s]
		rows[s].IndexBytes = int64((rows[s].Instances + m.deadRows[s]) * m.dim * 8)
	}
	return rows
}

// rank is the one reference: every live, non-excluded row scored through
// mat.WeightedSqDist, min over the bag, sorted by (distance, ID). It reads
// nothing of the database.
func (m *spineModel) rank(s flatScorer, exclude map[string]bool) []Result {
	out := []Result{}
	for _, id := range m.order {
		if !exclude[id] {
			out = append(out, Result{ID: id, Label: m.rows[id].label, Dist: modelDist(s, m.rows[id].insts)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return before(out[i], out[j]) })
	return out
}

func modelDist(s flatScorer, insts []mat.Vector) float64 {
	best := math.Inf(1)
	for _, inst := range insts {
		if d := mat.WeightedSqDist(s.p, inst, s.w); d < best {
			best = d
		}
	}
	return best
}

func before(a, b Result) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// head is what a top-k scan must return: nil for k ≤ 0, else ranking[:k].
func head(ranking []Result, k int) []Result {
	if k <= 0 {
		return nil
	}
	return ranking[:min(k, len(ranking))]
}

// spineGen draws a case's items and ops; prefix marks a writer's IDs.
type spineGen struct {
	r      *rand.Rand
	cfg    spineConfig
	prefix string
	next   int
}

func (g *spineGen) row(m *spineModel, label string) spineRow {
	r, dim, dup := g.r, g.cfg.dim, g.cfg.dup
	row := spineRow{label: label, insts: make([]mat.Vector, 1+r.Intn(g.cfg.maxInst))}
	for j := range row.insts {
		row.insts[j] = randVec(r, dim)
	}
	if dup == 0 {
		dup = 5
	}
	if len(m.order) > 0 && r.Intn(dup) == 0 {
		// An exact copy of a live bag: the two tie under every scorer, and
		// their IDs may sit in different shards.
		src := m.rows[m.order[r.Intn(len(m.order))]].insts
		row.insts = make([]mat.Vector, len(src))
		for j, v := range src {
			row.insts[j] = v.Clone()
		}
	}
	if g.cfg.poison && r.Intn(7) == 0 {
		for _, v := range row.insts {
			v[dim-1] = 1e308
		}
	}
	if r.Intn(3) == 0 {
		row.names = make([]string, len(row.insts))
		for j := range row.names {
			row.names[j] = fmt.Sprint("r", j)
		}
	}
	return row
}

// op draws one op of the given kind against m. An Update, relabel or
// Delete sometimes names an ID that is not live, which the database must
// refuse; so does an Add that re-draws a live ID, while one that re-draws a
// tombstoned ID must succeed.
func (g *spineGen) op(m *spineModel, kind byte) spineOp {
	r := g.r
	g.next++
	op := spineOp{kind: kind, id: fmt.Sprintf("%simg-%04d", g.prefix, g.next), qseed: r.Int63()}
	switch {
	case kind == 'a' && r.Intn(6) == 0 && len(m.seen) > 0:
		op.id = m.seen[r.Intn(len(m.seen))]
	case kind == 'x':
		op.id = fmt.Sprintf("%sbig-%04d", g.prefix, g.next)
	case strings.ContainsRune("uld", rune(kind)):
		op.id = g.prefix + "ghost"
		if len(m.order) > 0 && r.Intn(10) > 0 {
			op.id = m.order[r.Intn(len(m.order))]
		}
	}
	switch kind {
	case 'a', 'u':
		op.row = g.row(m, fmt.Sprintf("%c%d", kind, r.Intn(3)))
	case 'l':
		op.row.label = fmt.Sprint("l", r.Intn(1000))
	case 's':
		op.shard = r.Intn(m.shards)
	}
	return op
}

func (g *spineGen) ops(m *spineModel, n int) []spineOp {
	ops := make([]spineOp, n)
	for i := range ops {
		ops[i] = g.op(m, g.cfg.mix[g.r.Intn(len(g.cfg.mix))])
		m.apply(ops[i], g.cfg.dim)
	}
	return ops
}

// start draws the items present at construction, in the order the database
// numbers them, and the model they make.
func (cfg spineConfig) start() (*spineModel, []Item) {
	g := &spineGen{r: rand.New(rand.NewSource(cfg.seed)), cfg: cfg}
	m := newSpineModel(cfg.shards)
	for i := 0; i < cfg.n; i++ {
		op := g.op(m, 'a')
		op.id = fmt.Sprintf("img-%04d", i)
		m.apply(op, cfg.dim)
	}
	if cfg.via == 'F' {
		// NewDatabaseFromFlats numbers shard 0's items first.
		sort.SliceStable(m.order, func(i, j int) bool {
			return ShardIndexFor(m.order[i], cfg.shards) < ShardIndexFor(m.order[j], cfg.shards)
		})
	}
	items := make([]Item, len(m.order))
	for i, id := range m.order {
		items[i] = m.item(id)
	}
	return m, items
}

// genOps draws a case's op sequence; the same cfg always draws the same ops.
func (cfg spineConfig) genOps() []spineOp {
	m, _ := cfg.start()
	g := &spineGen{r: rand.New(rand.NewSource(cfg.seed + 1)), cfg: cfg, next: cfg.n}
	return g.ops(m, cfg.ops)
}

// build constructs the case's database the way cfg.via says, with the flat
// blocks it adopted (nil for an Add build).
func (cfg spineConfig) build() (*Database, *spineModel, [][]float64) {
	m, items := cfg.start()
	if cfg.via == 'a' || cfg.via == 0 {
		db := NewDatabaseSharded(cfg.shards)
		for _, it := range items {
			if err := db.Add(it); err != nil {
				panic(err)
			}
		}
		return db, m, nil
	}
	flats := make([]FlatShard, cfg.shards)
	for _, it := range items {
		fs := &flats[ShardIndexFor(it.ID, cfg.shards)]
		for _, v := range it.Bag.Instances {
			fs.Data = append(fs.Data, v...)
		}
	}
	// Each bag views its rows of its shard's block, as the store's loader
	// hands them over.
	blocks, offs := make([][]float64, cfg.shards), make([]int, cfg.shards)
	for _, it := range items {
		si := ShardIndexFor(it.ID, cfg.shards)
		fs := &flats[si]
		insts := make([]mat.Vector, len(it.Bag.Instances))
		for j := range insts {
			insts[j] = fs.Data[offs[si] : offs[si]+cfg.dim : offs[si]+cfg.dim]
			offs[si] += cfg.dim
		}
		fs.Items = append(fs.Items, Item{ID: it.ID, Label: it.Label,
			Bag: &mil.Bag{ID: it.ID, Instances: insts, Names: it.Bag.Names}})
		blocks[si] = fs.Data
	}
	dim := min(len(items), 1) * cfg.dim
	var db *Database
	var err error
	if cfg.via == 'f' {
		db, err = NewDatabaseFromFlat(flats[0].Items, dim, flats[0].Data)
	} else {
		db, err = NewDatabaseFromFlats(flats, dim)
	}
	if err != nil {
		panic(err)
	}
	return db, m, blocks
}

// spineFail is the first check a sequence failed.
type spineFail struct {
	step          int
	check, detail string
}

// runSpine builds the case's database, applies ops to it and to the model,
// and checks everything after construction and after every op; then, once,
// the cross-database partition and the ignored Recall knob.
func runSpine(cfg spineConfig, ops []spineOp) (fail *spineFail) {
	step := 0
	defer func() {
		if p := recover(); p != nil {
			fail = &spineFail{step, "panic", fmt.Sprint(p)}
		}
	}()
	db, m, blocks := cfg.build()
	saved := make([][]float64, len(blocks))
	for i, b := range blocks {
		saved[i] = append([]float64(nil), b...)
	}
	c := &checker{}
	for si, b := range blocks {
		// Before any op, a flat build's bags view the blocks it adopted,
		// not copies of them.
		for _, id := range m.order {
			if ShardIndexFor(id, m.shards) == si {
				if it, _ := db.ByID(id); &it.Bag.Instances[0][0] != &b[0] {
					c.failf("adopted_block", "shard %d's first bag %s does not view the adopted block", si, id)
				}
				break
			}
		}
	}
	for i := 0; i <= len(ops) && c.fail == nil; i++ {
		qseed := cfg.seed
		if step = i; i > 0 {
			// A scan view taken before the op ranks as the model did
			// before it, whatever the op writes.
			op, view := ops[i-1], db.snapshot()
			s, _, _ := spineScorers(rand.New(rand.NewSource(op.qseed)), m, cfg)
			was := m.rank(s, nil)
			qseed = op.qseed
			wantErr := m.apply(op, cfg.dim)
			if err := op.apply(db, cfg.dim); (err != nil) != wantErr {
				c.failf("op_errors", "%v: database says %v, model expects an error: %v", op, err, wantErr)
			}
			c.eq("snapshot", view.Rank(index.Query{Point: s.p, Weights: s.w}, nil, cfg.par), was)
			if op.kind == 'r' {
				c.repeat(db, m, cfg, op)
			}
		}
		for i := range blocks {
			c.eq("adopted_block", blocks[i], saved[i])
		}
		c.step(db, m, cfg, qseed, step)
	}
	if c.fail == nil {
		step++
		c.partition(db, m, cfg)
	}
	if c.fail != nil {
		c.fail.step = step
	}
	return c.fail
}

// shrink greedily drops ops while the sequence still fails, and renders the
// failure with the seed, the configuration and what is left.
func shrink(cfg spineConfig, ops []spineOp, f *spineFail) string {
	n := len(ops)
	for i := len(ops) - 1; i >= 0; i-- {
		cand := append(append([]spineOp(nil), ops[:i]...), ops[i+1:]...)
		if g := runSpine(cfg, cand); g != nil {
			ops, f = cand, g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d, config %+v\ncheck %s failed after op %d: %s\nops (shrunk from %d to %d):",
		cfg.seed, cfg, f.check, f.step, f.detail, n, len(ops))
	for i, op := range ops {
		fmt.Fprintf(&b, "\n  %d: %v", i+1, op)
	}
	return b.String()
}

// checker keeps the first failed check.
type checker struct {
	mu   sync.Mutex
	fail *spineFail
}

func (c *checker) failf(check, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail == nil {
		c.fail = &spineFail{check: check, detail: fmt.Sprintf(format, args...)}
	}
}

func (c *checker) failed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fail != nil
}

// same is reflect.DeepEqual, computed without reflection for results and
// items: the race detector instruments reflection heavily, and nearly all
// of the harness's comparisons are of those.
func same(got, want any) bool {
	switch g := got.(type) {
	case []Result:
		w := want.([]Result)
		return (g == nil) == (w == nil) && slices.Equal(g, w)
	case [][]Result:
		w := want.([][]Result)
		return (g == nil) == (w == nil) && slices.EqualFunc(g, w, func(a, b []Result) bool { return same(a, b) })
	case []Item:
		w := want.([]Item)
		return (g == nil) == (w == nil) && slices.EqualFunc(g, w, func(a, b Item) bool { return same(a, b) })
	case Item:
		w, sameVec := want.(Item), func(u, v mat.Vector) bool { return slices.Equal(u, v) }
		return g.ID == w.ID && g.Label == w.Label && g.Bag.ID == w.Bag.ID &&
			(g.Bag.Names == nil) == (w.Bag.Names == nil) && slices.Equal(g.Bag.Names, w.Bag.Names) &&
			slices.EqualFunc(g.Bag.Instances, w.Bag.Instances, sameVec)
	}
	return reflect.DeepEqual(got, want)
}

// eq fails check unless got and want are deeply equal, naming the first
// differing element of two slices rather than printing both.
func (c *checker) eq(check string, got, want any) {
	if same(got, want) {
		return
	}
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	if g.Kind() != reflect.Slice || w.Kind() != reflect.Slice {
		c.failf(check, "\n got %v\nwant %v", got, want)
		return
	}
	i := 0
	for i < g.Len() && i < w.Len() && reflect.DeepEqual(g.Index(i).Interface(), w.Index(i).Interface()) {
		i++
	}
	at := func(v reflect.Value) any {
		if i < v.Len() {
			return v.Index(i).Interface()
		}
		return "(end)"
	}
	c.failf(check, "lengths %d, want %d; first difference at %d:\n got %v\nwant %v", g.Len(), w.Len(), i, at(g), at(w))
}

// step checks the database against the model after one op: what it reads
// back, then every scan.
func (c *checker) step(db *Database, m *spineModel, cfg spineConfig, qseed int64, step int) {
	if c.fail != nil {
		return
	}
	c.eq("len", [2]int{db.Len(), db.Dim()}, [2]int{len(m.order), m.dim})
	items, labels := make([]Item, len(m.order)), make([][2]string, len(m.order))
	for i, id := range m.order {
		items[i], labels[i] = m.item(id), [2]string{id, m.rows[id].label}
	}
	c.eq("items", db.Items(), items)
	var named [][2]string
	for _, id := range m.seen {
		got, ok := db.ByID(id)
		if row, live := m.rows[id]; live != ok || live && !same(got, m.item(id)) {
			c.failf("by_id", "ByID(%s) = %v, %v; model live %v", id, got, ok, live)
		} else if live {
			named = append(named, [2]string{id, row.label})
		}
	}
	listed, looked := [][2]string{}, [][2]string(nil)
	db.EachLabel(func(id, label string) { listed = append(listed, [2]string{id, label}) })
	db.EachLabel(func(id, label string) { looked = append(looked, [2]string{id, label}) }, m.seen...)
	c.eq("each_label", listed, labels)
	c.eq("each_label", looked, named)
	c.eq("shard_stats", db.ShardStats(), m.stats())
	if c.fail == nil {
		c.scans(db, m, cfg, rand.New(rand.NewSource(qseed)), step)
	}
}

// spineScorers draws a step's scorers: s0 random (zero weight on a
// poisoned dimension, so those bags stay finite), s1 centred on a live
// instance (its bag and every copy tie at the head), and neg with one
// negative weight, which disarms the filter and early abandonment.
func spineScorers(r *rand.Rand, m *spineModel, cfg spineConfig) (s0, s1, neg flatScorer) {
	draw := func() flatScorer {
		s := flatScorer{weightedScorer{p: randVec(r, cfg.dim), w: mat.NewVector(cfg.dim)}}
		for k := range s.w {
			s.w[k] = r.Float64() * 2
		}
		return s
	}
	s0, s1, neg = draw(), draw(), draw()
	if cfg.poison {
		s0.w[cfg.dim-1] = 0
	}
	if len(m.order) > 0 {
		copy(s1.p, m.rows[m.order[r.Intn(len(m.order))]].insts[0])
	}
	neg.w[r.Intn(cfg.dim)] = -0.5 - r.Float64()
	return s0, s1, neg
}

// scans checks every scan entry point against the reference.
func (c *checker) scans(db *Database, m *spineModel, cfg spineConfig, r *rand.Rand, step int) {
	n := len(m.order)
	s0, s1, neg := spineScorers(r, m, cfg)
	exclude, all := map[string]bool{"ghost": true}, map[string]bool{}
	for _, id := range m.order {
		exclude[id], all[id] = r.Intn(6) == 0, true
	}
	o := Options{Parallelism: cfg.par}
	ox := Options{Exclude: exclude, Parallelism: cfg.par}
	r0, r1, rneg, r0x := m.rank(s0, nil), m.rank(s1, nil), m.rank(neg, nil), m.rank(s0, exclude)

	c.eq("rank", Rank(db, s0, o), r0)
	c.eq("rank_serial", Rank(db, s0, Options{Parallelism: 1}), r0)
	c.eq("rank_exclude", Rank(db, s0, ox), r0x)
	c.eq("rank_negative", Rank(db, neg, o), rneg)
	c.eq("exclude_all", Rank(db, s1, Options{Exclude: all, Parallelism: cfg.par}), []Result{})
	c.eq("exclude_all", TopK(db, s1, 3, Options{Exclude: all, Parallelism: cfg.par}), []Result{})
	for _, k := range []int{0, 1, n / 2, n, n + 5, -2} {
		c.eq(fmt.Sprint("topk k=", k), TopK(db, s0, k, o), head(r0, k))
	}
	// The head of r1 is a tie group (the centre's bag and its copies): a
	// k inside it and one past it must break the ties by ID across shards.
	g := 0
	for g < n && r1[g].Dist == r1[0].Dist {
		g++
	}
	c.eq("ties", Rank(db, s1, o), r1)
	for _, k := range []int{1, g, g + 1} {
		c.eq(fmt.Sprint("ties k=", k), TopK(db, s1, k, o), head(r1, k))
	}
	k := 1 + r.Intn(n+1)
	c.eq("topk_negative", TopK(db, neg, k, o), head(rneg, k))
	c.eq("topk_exclude", TopK(db, s0, k, ox), head(r0x, k))
	if k <= n {
		// A seed at the true k-th best is the tightest valid one (ties at
		// it survive); a looser one and the ignored values move no bit.
		kth := r0[k-1].Dist
		ignored := []float64{0, -1, math.NaN(), math.Inf(1)}[r.Intn(4)]
		for _, seed := range []float64{kth, 2*kth + 1, ignored} {
			c.eq(fmt.Sprint("cutoff_seed ", seed), TopK(db, s0, k, Options{CutoffSeed: seed, Parallelism: cfg.par}), head(r0, k))
		}
	}
	// A batch mixes armed and unarmed scorers and repeats them. Its sizes
	// fall below, at and above the worker budget, and the fifth step's is
	// one past the 64 scorers a batch was once chunked at.
	size := []int{1, 2, 5, 9}[step%4]
	if step == 4 {
		size = 70
	}
	pool, refs := []Scorer{s0, s1, neg}, [][]Result{r0, r1, rneg}
	batch, want := make([]Scorer, size), make([][]Result, size)
	kb := []int{0, 1, n/2 + 1, n + 5}[r.Intn(4)]
	for i := range batch {
		j := r.Intn(len(pool))
		batch[i], want[i] = pool[j], head(refs[j], kb)
	}
	c.eq(fmt.Sprint("topk_many k=", kb), TopKMany(db, batch, kb, o), want)
	c.eq("topk_many_nil", TopKMany(db, nil, 1, o), [][]Result(nil))
}

// repeat runs one top-k query, changes one thing, and runs it again, both
// times through the database's cutoff memo and held to the reference. The
// change deletes or re-pixels a top-k member, which keeps the memo's key and
// may push the k-th best past the remembered bound, or it changes the
// exclude set or k, which changes the key. The counters must say what the
// memo did: a repeat under the same key starts from the first answer's k-th
// best, and is scanned again exactly when the new k-th best lies past it.
func (c *checker) repeat(db *Database, m *spineModel, cfg spineConfig, op spineOp) {
	if len(m.order) == 0 || c.fail != nil {
		return
	}
	r := rand.New(rand.NewSource(op.qseed ^ 0x5eed))
	s, _, _ := spineScorers(r, m, cfg)
	exclude, k := map[string]bool{}, 1+r.Intn(len(m.order))
	o := Options{Exclude: exclude, Parallelism: cfg.par}
	first := head(m.rank(s, exclude), k)
	before := db.PruneStats()
	c.eq("repeat_first", TopK(db, s, k, o), first)
	member, sameKey := first[r.Intn(len(first))].ID, true
	switch variant := r.Intn(4); variant {
	case 0, 1:
		change := spineOp{kind: "du"[variant], id: member}
		if change.kind == 'u' {
			change.row = (&spineGen{r: r, cfg: cfg}).row(m, "r")
		}
		m.apply(change, cfg.dim)
		if err := change.apply(db, cfg.dim); err != nil {
			c.failf("repeat_change", "%v: %v", change, err)
		}
	case 2:
		exclude[member], sameKey = true, false
	case 3:
		if k > 1 && r.Intn(2) == 0 {
			k--
		} else {
			k++
		}
		sameKey = false
	}
	again := head(m.rank(s, exclude), k)
	c.eq("repeat_again", TopK(db, s, k, o), again)
	var want [2]int64
	if seed := first[len(first)-1].Dist; sameKey && seed > 0 && !math.IsInf(seed, 1) {
		want[0] = 1
		if len(again) < k || again[k-1].Dist > seed {
			want[1] = 1
		}
	}
	after := db.PruneStats()
	c.eq("repeat_counters", [2]int64{after.Seeded - before.Seeded, after.Rescans - before.Rescans}, want)
}

// partition splits the model over two fresh databases and answers one
// top-k the way a coordinator does: the first partition's k-th best seeds
// the second through one Cutoff, and the merged lists must be the global
// top-k. A seed at the global k-th best must reject no fewer bags than
// none: from the first bag on, the cutoff it screens against is no looser.
// Every Recall value must leave a screened scan's bits alone, and a batch
// must ignore a seed.
func (c *checker) partition(db *Database, m *spineModel, cfg spineConfig) {
	n := len(m.order)
	if n < 2 {
		return
	}
	r := rand.New(rand.NewSource(cfg.seed + 2))
	s0, _, _ := spineScorers(r, m, cfg)
	full, k := m.rank(s0, nil), 1+r.Intn(n-1)
	q := index.Query{Point: s0.p, Weights: s0.w}
	for _, recall := range []float64{1, 2.5, -1} {
		got := db.snapshot().TopKPruned(q, k, nil, cfg.par, index.PruneOpts{Recall: recall})
		c.eq(fmt.Sprint("recall ", recall), got, head(full, k))
	}
	// A batch ignores a seed, even one no valid bound could be.
	batch := db.snapshot().MultiTopKPruned([]index.Query{q}, k, nil, cfg.par, index.PruneOpts{CutoffSeed: math.SmallestNonzeroFloat64})
	c.eq("batch_seed", batch, [][]Result{head(full, k)})
	parts := [2]*Database{NewDatabaseSharded(1 + r.Intn(3)), NewDatabaseSharded(1 + r.Intn(3))}
	for i, id := range m.order {
		if err := parts[i%2].Add(m.item(id)); err != nil {
			panic(err)
		}
	}
	merge := func(a, b []Result) []Result {
		all := append(append([]Result{}, a...), b...)
		sort.Slice(all, func(i, j int) bool { return before(all[i], all[j]) })
		return head(all, k)
	}
	chain := index.NewCutoff()
	var lists [2][]Result
	for i, p := range parts {
		lists[i] = TopK(p, s0, k, Options{CutoffSeed: chain.Load(), Parallelism: cfg.par})
		if len(lists[i]) == k {
			chain.Tighten(lists[i][k-1].Dist)
		}
	}
	c.eq("partition", merge(lists[0], lists[1]), head(full, k))
	if bound := chain.Load(); len(lists[0]) == k && (bound < full[k-1].Dist || bound > lists[0][k-1].Dist) {
		c.failf("partition_bound", "chained cutoff %v outside [global k-th best %v, first partition's %v]",
			bound, full[k-1].Dist, lists[0][k-1].Dist)
	}
	rejected := func(seed float64) (int64, []Result) {
		before := parts[1].PruneStats().Rejected
		got := TopK(parts[1], s0, k, Options{CutoffSeed: seed, Parallelism: 1})
		return parts[1].PruneStats().Rejected - before, got
	}
	seeded, got := rejected(full[k-1].Dist)
	c.eq("partition_seeded", merge(lists[0], got), head(full, k))
	if unseeded, _ := rejected(0); seeded < unseeded {
		c.failf("partition_seeded", "a seed at the global k-th best rejected %d bags, no seed %d", seeded, unseeded)
	}
}

// concurrentRun is a concurrent case's shared state: each writer's op list
// and rows after each of its ops, and two counters per writer.
type concurrentRun struct {
	cfg      spineConfig
	db       *Database
	stable   *spineModel             // the construction items; no writer touches them
	ops      [][]spineOp             // ops[w]: writer w's op list
	versions [][]map[string]spineRow // versions[w][v]: writer w's rows after v ops
	started  []atomic.Int64          // ops writer w has begun
	finished []atomic.Int64          // ops writer w has finished
	check    checker
}

// owner returns the writer that owns id, or -1 for a construction item.
func owner(id string) int {
	w := -1
	fmt.Sscanf(id, "w%d-", &w)
	return w
}

// window is a read's view of the writers: lo[w] of writer w's ops had
// finished before it began, hi[w] had begun before it returned.
type window struct{ lo, hi []int64 }

func load(counts []atomic.Int64) []int64 {
	out := make([]int64, len(counts))
	for w := range counts {
		out[w] = counts[w].Load()
	}
	return out
}

// valid reports whether id reads back with label and a row match accepts
// at some version inside the window.
func (cr *concurrentRun) valid(win window, id, label string, match func(spineRow) bool) bool {
	w := owner(id)
	if w < 0 {
		row, ok := cr.stable.rows[id]
		return ok && row.label == label && match(row)
	}
	for v := win.lo[w]; v <= win.hi[w]; v++ {
		if row, ok := cr.versions[w][v][id]; ok && row.label == label && match(row) {
			return true
		}
	}
	return false
}

// missing returns an ID that is live and unchanged across the window but
// not in got, or "".
func (cr *concurrentRun) missing(win window, got map[string]bool) string {
	for _, id := range cr.stable.order {
		if !got[id] {
			return id
		}
	}
	for w := range cr.ops {
	next:
		for id, row := range cr.versions[w][win.lo[w]] {
			for v := win.lo[w] + 1; v <= win.hi[w]; v++ {
				if now, ok := cr.versions[w][v][id]; !ok || now.label != row.label || &now.insts[0] != &row.insts[0] {
					continue next
				}
			}
			if !got[id] {
				return id
			}
		}
	}
	return ""
}

// rows checks one read's results: sorted by (distance, ID), each a model
// row of the window, and — when the read returned every candidate — no
// steady ID missing.
func (cr *concurrentRun) rows(check string, win window, s flatScorer, res []Result, complete bool) {
	got := map[string]bool{}
	for i, x := range res {
		if i > 0 && !before(res[i-1], x) || got[x.ID] {
			cr.check.failf(check, "%v ranks after %v, or twice", x, res[i-1])
		}
		if !cr.valid(win, x.ID, x.Label, func(row spineRow) bool { return modelDist(s, row.insts) == x.Dist }) {
			cr.check.failf(check, "%v is no model row in window %v", x, win)
		}
		got[x.ID] = true
	}
	if id := cr.missing(win, got); complete && id != "" {
		cr.check.failf(check, "%s, live and unchanged across window %v, is missing", id, win)
	}
}

// read runs one reader query, chosen by i, and checks it.
func (cr *concurrentRun) read(i int, s flatScorer) {
	o := Options{Parallelism: cr.cfg.par}
	win := window{lo: load(cr.finished)}
	switch k := 1 + i%7; i % 4 {
	case 0:
		res := Rank(cr.db, s, o)
		win.hi = load(cr.started)
		cr.rows("concurrent_rank", win, s, res, true)
	case 1:
		res := TopK(cr.db, s, k, o)
		win.hi = load(cr.started)
		if len(res) > k {
			cr.check.failf("concurrent_topk", "TopK(%d) returned %d rows", k, len(res))
		}
		cr.rows("concurrent_topk", win, s, res, len(res) < k)
	case 2:
		many := TopKMany(cr.db, []Scorer{s, s, s}, k, o)
		win.hi = load(cr.started)
		if !reflect.DeepEqual(many[0], many[1]) || !reflect.DeepEqual(many[0], many[2]) {
			cr.check.failf("concurrent_many", "one batch's elements differ: %v", many)
		}
		cr.rows("concurrent_many", win, s, many[0], len(many[0]) < k)
	case 3:
		items := cr.db.Items()
		win.hi = load(cr.started)
		got := map[string]bool{}
		for _, it := range items {
			if got[it.ID] || !cr.valid(win, it.ID, it.Label, func(row spineRow) bool {
				return reflect.DeepEqual(it.Bag.Instances, row.insts) && reflect.DeepEqual(it.Bag.Names, row.names)
			}) {
				cr.check.failf("concurrent_items", "item %s %q is no model row in window %v, or listed twice", it.ID, it.Label, win)
			}
			got[it.ID] = true
		}
		if id := cr.missing(win, got); id != "" {
			cr.check.failf("concurrent_items", "%s, live and unchanged across window %v, is not listed", id, win)
		}
	}
}

// runConcurrent races cfg.writers writers, each running its own op list on
// IDs it alone owns, against two readers, then checks the final state
// sequentially after a whole Compact. It returns the first failure with the
// op lists; a schedule does not replay, so nothing is shrunk.
func runConcurrent(cfg spineConfig) string {
	db, stable, _ := cfg.build()
	cr := &concurrentRun{cfg: cfg, db: db, stable: stable,
		started: make([]atomic.Int64, cfg.writers), finished: make([]atomic.Int64, cfg.writers)}
	models := make([]*spineModel, cfg.writers)
	for w := range models {
		g := &spineGen{r: rand.New(rand.NewSource(cfg.seed + int64(100*(w+1)))), cfg: cfg, prefix: fmt.Sprintf("w%d-", w)}
		models[w] = newSpineModel(cfg.shards)
		vs := []map[string]spineRow{{}}
		var ops []spineOp
		for i := 0; i < cfg.ops; i++ {
			ops = append(ops, g.ops(models[w], 1)...)
			vs = append(vs, maps.Clone(models[w].rows))
		}
		cr.ops, cr.versions = append(cr.ops, ops), append(cr.versions, vs)
	}
	s, _, _ := spineScorers(rand.New(rand.NewSource(cfg.seed+3)), stable, cfg)
	var writers, readers sync.WaitGroup
	var done atomic.Bool
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			// At least a few reads each, however fast the writers finish.
			for i := g; (!done.Load() || i < 24) && !cr.check.failed(); i++ {
				cr.read(i, s)
			}
		}(g)
	}
	for w := range cr.ops {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			replay := newSpineModel(cfg.shards)
			for j, op := range cr.ops[w] {
				wantErr := replay.apply(op, cfg.dim)
				cr.started[w].Store(int64(j + 1))
				err := op.apply(db, cfg.dim)
				cr.finished[w].Store(int64(j + 1))
				if (err != nil) != wantErr {
					cr.check.failf("op_errors", "writer %d op %d %v: database says %v, model expects an error: %v", w, j, op, err, wantErr)
				}
				// Read your own write: the op's ID now reads as this
				// writer's model says, whatever the others do.
				row, live := cr.versions[w][j+1][op.id]
				var found *Result
				for _, x := range Rank(db, s, Options{Parallelism: cfg.par}) {
					if x.ID == op.id {
						found = &x
					}
				}
				if live != (found != nil) || live && (found.Label != row.label || found.Dist != modelDist(s, row.insts)) {
					cr.check.failf("concurrent_own_write", "writer %d after op %d %v: ranked %v, model live %v", w, j, op, found, live)
				}
				if cr.check.failed() {
					return
				}
			}
		}(w)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()

	if cr.check.fail == nil {
		final := cr.finalModel(models)
		db.Compact()
		cr.check.step(db, final, cfg, cfg.seed+4, 0)
		if f := cr.check.fail; f != nil {
			f.check = "concurrent_final: " + f.check
		}
	}
	if cr.check.fail == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check %s: %s", cr.check.fail.check, cr.check.fail.detail)
	for w, ops := range cr.ops {
		fmt.Fprintf(&b, "\nwriter %d ops:", w)
		for i, op := range ops {
			fmt.Fprintf(&b, "\n  %d: %v", i+1, op)
		}
	}
	return b.String()
}

// finalModel merges the construction items and every writer's final rows
// as of a whole Compact. The interleaving fixes the global insertion order,
// so it is read from the database — but restricted to any one owner it must
// be that owner's own order.
func (cr *concurrentRun) finalModel(models []*spineModel) *spineModel {
	m := newSpineModel(cr.cfg.shards)
	byOwner := map[int][]string{}
	cr.db.EachLabel(func(id, _ string) {
		m.order = append(m.order, id)
		byOwner[owner(id)] = append(byOwner[owner(id)], id)
	})
	for w, wm := range append([]*spineModel{cr.stable}, models...) {
		for id, row := range wm.rows {
			m.rows[id] = row
		}
		m.seen = append(m.seen, wm.seen...)
		m.dim = max(m.dim, wm.dim)
		if len(wm.order) > 0 && !reflect.DeepEqual(byOwner[w-1], wm.order) {
			cr.check.failf("concurrent_final: items", "owner %d's items listed as %v, want %v", w-1, byOwner[w-1], wm.order)
		}
	}
	return m
}
