package retrieval

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"milret/internal/mat"
	"milret/internal/mil"
)

// flatShards lays out nShards flat shards of bags bags × per instances ×
// dim, each item's bag viewing its rows of the block, with IDs chosen so
// each hashes to the shard that carries it. Every shard adopts the same
// block: nothing writes to an adopted block, so they may share it, and the
// fixture costs one block of memory however many shards it has.
func flatShards(nShards, bags, per, dim int) []FlatShard {
	data := make([]float64, bags*per*dim)
	for i := range data {
		data[i] = float64(i%997) / 997
	}
	flats := make([]FlatShard, nShards)
	for i := range flats {
		flats[i] = FlatShard{Items: make([]Item, 0, bags), Data: data}
	}
	for n, filled := 0, 0; filled < nShards*bags; n++ {
		id := fmt.Sprintf("img-%06d", n)
		fs := &flats[ShardIndexFor(id, nShards)]
		b := len(fs.Items)
		if b == bags {
			continue
		}
		insts := make([]mat.Vector, per)
		for j := range insts {
			row := (b*per + j) * dim
			insts[j] = mat.Vector(data[row : row+dim : row+dim])
		}
		fs.Items = append(fs.Items, Item{ID: id, Label: "l", Bag: &mil.Bag{ID: id, Instances: insts}})
		filled++
	}
	return flats
}

// freshBag returns a bag of per new dim-dimensional instances.
func freshBag(id string, per, dim int) *mil.Bag {
	insts := make([]mat.Vector, per)
	for j := range insts {
		insts[j] = make(mat.Vector, dim)
		for k := range insts[j] {
			insts[j][k] = float64(j+k) / 10
		}
	}
	return &mil.Bag{ID: id, Instances: insts}
}

// TestUpdateAfterFlatOpenCopiesNoBlock: the first Update of a shard opened
// from a flat block writes the new bag to a heap tail and its sketch to a
// sketch tail, so it allocates a small fraction of the shard's row bytes
// instead of copying the block or the base's sketches.
func TestUpdateAfterFlatOpenCopiesNoBlock(t *testing.T) {
	const shards, bags, per, dim = 4, 5000, 10, 100
	flats := flatShards(shards, bags, per, dim)
	db, err := NewDatabaseFromFlats(flats, dim)
	if err != nil {
		t.Fatal(err)
	}
	id := flats[1].Items[bags/2].ID
	upd := Item{ID: id, Label: "updated", Bag: freshBag(id, per, dim)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := db.Update(upd); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	rowBytes := uint64(bags * per * dim * 8)
	t.Logf("one Update allocated %d bytes, %.1f%% of the shard's %d row bytes",
		grew, 100*float64(grew)/float64(rowBytes), rowBytes)
	if grew*100 >= rowBytes {
		t.Fatalf("one Update allocated %d bytes, ≥ 1%% of the shard's %d row bytes", grew, rowBytes)
	}
	if got, ok := db.ByID(id); !ok || got.Label != "updated" {
		t.Fatalf("updated item = %+v, %v", got, ok)
	}
}

// liveHeap returns the live heap's bytes after a collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCompactKeepsOneCopyOfRows: after Update churn and a Compact, a
// heap-built database's live heap is its live rows and little more. No slot
// keeps a bag's instances beside the index, and the compaction frees the
// rows it replaces.
func TestCompactKeepsOneCopyOfRows(t *testing.T) {
	const bags, per, dim = 1000, 16, 64
	before := liveHeap()
	db := NewDatabase()
	for i := 0; i < bags; i++ {
		id := fmt.Sprintf("img-%04d", i)
		if err := db.Add(Item{ID: id, Label: "l", Bag: freshBag(id, per, dim)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < bags; i += 2 {
		id := fmt.Sprintf("img-%04d", i)
		if err := db.Update(Item{ID: id, Label: "u", Bag: freshBag(id, per, dim)}); err != nil {
			t.Fatal(err)
		}
	}
	db.Compact()
	grew := liveHeap() - before
	rowBytes := totals(db).IndexBytes
	t.Logf("live heap grew %d bytes for %d bytes of live rows (%.2f×)", grew, rowBytes, float64(grew)/float64(rowBytes))
	if float64(grew) > 1.2*float64(rowBytes) {
		t.Fatalf("live heap grew %d bytes, > 1.2 × the %d bytes of live rows", grew, rowBytes)
	}
	runtime.KeepAlive(db)
}

// TestCompactDropsFlatBlockViews: before a flat-opened database compacts,
// its bags view the adopted block (a store's mapping); after, no bag a read
// returns points into it, and each still holds its rows' values.
func TestCompactDropsFlatBlockViews(t *testing.T) {
	const bags, per, dim = 200, 4, 8
	flats := flatShards(1, bags, per, dim)
	db, err := NewDatabaseFromFlats(flats, dim)
	if err != nil {
		t.Fatal(err)
	}
	block := flats[0].Data
	lo := uintptr(unsafe.Pointer(&block[0]))
	hi := lo + uintptr(len(block))*unsafe.Sizeof(block[0])
	inBlock := func(it Item) bool {
		for _, inst := range it.Bag.Instances {
			if p := uintptr(unsafe.Pointer(&inst[0])); p >= lo && p < hi {
				return true
			}
		}
		return false
	}
	if got, _ := db.ByID(flats[0].Items[1].ID); !inBlock(got) {
		t.Fatal("an opened item's bag does not view the adopted block")
	}
	for i := 0; i < bags; i += 4 {
		id := flats[0].Items[i].ID
		if err := db.Update(Item{ID: id, Label: "u", Bag: freshBag(id, per, dim)}); err != nil {
			t.Fatal(err)
		}
	}
	db.Compact()
	for _, it := range append(db.Items(), db.ShardItems(0)...) {
		if inBlock(it) {
			t.Fatalf("after Compact, %q's bag still views the adopted block", it.ID)
		}
	}
	for i, want := range flats[0].Items {
		got, ok := db.ByID(want.ID)
		if !ok || inBlock(got) {
			t.Fatalf("after Compact, ByID(%q) = %v, views the block: %v", want.ID, ok, ok && inBlock(got))
		}
		if i%4 != 0 && !reflect.DeepEqual(got.Bag.Instances, want.Bag.Instances) {
			t.Fatalf("after Compact, %q's rows changed", want.ID)
		}
	}
}

// TestByIDAllocatesTheViewOnly: a training example's fetch costs two
// allocations, the bag and its instance headers, and copies no row.
func TestByIDAllocatesTheViewOnly(t *testing.T) {
	db := NewDatabase()
	if err := db.Add(Item{ID: "a", Label: "l", Bag: freshBag("a", 40, 100)}); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { db.ByID("a") }); allocs > 2 {
		t.Fatalf("ByID: %.0f allocations, want ≤ 2", allocs)
	}
}

// BenchmarkCompact rebuilds one 5,000-bag shard of 10 instances × 100
// dimensions, adopted from a flat block, after 1,000 of its bags were
// deleted.
func BenchmarkCompact(b *testing.B) {
	const bags, per, dim = 5000, 10, 100
	flats := flatShards(1, bags, per, dim)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := NewDatabaseFromFlats(flats, dim)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 1000; j++ {
			if err := db.Delete(flats[0].Items[j*bags/1000].ID); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		db.Compact()
	}
}
