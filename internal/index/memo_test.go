package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"milret/internal/mat"
)

// memoWorld is an index plus the bags it holds, mutated in step, for
// holding memo-seeded scans to the naive ranking.
type memoWorld struct {
	x      *Index
	bags   map[string][]mat.Vector
	labels map[string]string
	slots  []string // index slot → ID ("" once deleted)
}

func newMemoWorld(r *rand.Rand, n, dim int) *memoWorld {
	x, bags, labels := randIndex(r, n, dim, 4)
	w := &memoWorld{x: x, bags: bags, labels: labels}
	for i := 0; i < n; i++ {
		w.slots = append(w.slots, fmt.Sprintf("img-%04d", i))
	}
	return w
}

// scan is one memo-seeded top-k over a fresh snapshot.
func (w *memoWorld) scan(memo *CutoffMemo, key uint64, q Query, k int, exclude map[string]bool, st *PruneStats) []Result {
	view := Sharded{w.x.Snapshot()}
	res, err := MemoScan(memo, key, k, st, func(r Result) float64 { return r.Dist },
		func(seed float64) ([]Result, error) {
			return view.TopKPruned(q, k, exclude, 2, PruneOpts{Stats: st, CutoffSeed: seed}), nil
		})
	if err != nil {
		panic(err)
	}
	return res
}

func (w *memoWorld) want(q Query, k int, exclude map[string]bool) []Result {
	all := naiveRank(w.bags, w.labels, q, exclude)
	return all[:min(k, len(all))]
}

// TestMemoScanForcedCollision maps every query to one memo key, so each scan
// is seeded with whatever the last one — another geometry, another k,
// another exclude set, data since deleted — ended at. Every answer must
// still be the naive ranking's head, and the run must take both the kept
// and the rescanned path.
func TestMemoScanForcedCollision(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const dim = 6
	w := newMemoWorld(r, 300, dim)
	qs := []Query{randQuery(r, dim), randQuery(r, dim), randQuery(r, dim)}
	var memo CutoffMemo
	var st PruneStats
	for step := 0; step < 400; step++ {
		switch r.Intn(4) {
		case 0: // delete a live bag, often a top-ranked one
			if live := w.want(qs[0], 3, nil); len(live) > 0 {
				id := live[r.Intn(len(live))].ID
				if r.Intn(2) == 0 {
					id = w.slots[r.Intn(len(w.slots))]
				}
				if i := slices.Index(w.slots, id); id != "" && i >= 0 {
					if err := w.x.Delete(i); err != nil {
						t.Fatal(err)
					}
					w.slots[i] = ""
					delete(w.bags, id)
				}
			}
		case 1: // add a bag near a query point
			id := fmt.Sprintf("new-%04d", step)
			v := mat.Vector(append([]float64(nil), qs[r.Intn(len(qs))].Point...))
			v[r.Intn(dim)] += r.NormFloat64()
			if err := w.x.Append(id, "new", []mat.Vector{v}); err != nil {
				t.Fatal(err)
			}
			w.slots, w.bags[id], w.labels[id] = append(w.slots, id), []mat.Vector{v}, "new"
		}
		q, k := qs[r.Intn(len(qs))], 1+r.Intn(25)
		exclude := map[string]bool{}
		if r.Intn(3) == 0 {
			for _, res := range w.want(q, 4, nil) {
				exclude[res.ID] = r.Intn(2) == 0
			}
		}
		if got, want := w.scan(&memo, 7, q, k, exclude, &st), w.want(q, k, exclude); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (k %d): memo-seeded scan\n got %v\nwant %v", step, k, got, want)
		}
	}
	seeded, rescans := st.Seeded.Load(), st.Rescans.Load()
	if rescans == 0 || rescans == seeded {
		t.Fatalf("%d seeded scans, %d rescanned: want both paths taken", seeded, rescans)
	}
	t.Logf("%d seeded scans, %d rescanned", seeded, rescans)
}

// TestMemoScanConcurrentOneConcept races scans of one concept through one
// memo — under its real key per k, and under one key shared by every k, so
// writers race to store different bounds in one slot. Every answer must be
// the naive ranking's head. Run it with -race.
func TestMemoScanConcurrentOneConcept(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const dim = 5
	w := newMemoWorld(r, 400, dim)
	q := randQuery(r, dim)
	ks := []int{1, 5, 20}
	want := map[int][]Result{}
	for _, k := range ks {
		want[k] = w.want(q, k, nil)
	}
	var memo CutoffMemo
	var st PruneStats
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				k := ks[(g+i)%len(ks)]
				key := CutoffKey(q, k, nil)
				if g%2 == 1 {
					key = 7
				}
				if got := w.scan(&memo, key, q, k, nil, &st); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d, scan %d (k %d): got %v, want %v", g, i, k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	if st.Seeded.Load() == 0 {
		t.Fatal("no scan was seeded")
	}
}

// TestCutoffKey: the key covers the geometry's bits, k and the exclude set,
// and not the set's order.
func TestCutoffKey(t *testing.T) {
	q := Query{Point: []float64{1, 2, 3}, Weights: []float64{0.5, 0.5, 1}}
	ids := func(s ...string) func(func(string) bool) { return slices.Values(s) }
	base := CutoffKey(q, 10, ids("a", "b"))
	if base == 0 || base != CutoffKey(q, 10, ids("b", "a")) {
		t.Fatalf("key %#x depends on the exclude order", base)
	}
	nudged := Query{Point: []float64{1, 2, 3}, Weights: []float64{0.5, 0.5, 1.0000000000000002}}
	swapped := Query{Point: q.Weights, Weights: q.Point}
	for name, k := range map[string]uint64{
		"k":       CutoffKey(q, 11, ids("a", "b")),
		"exclude": CutoffKey(q, 10, ids("a")),
		"none":    CutoffKey(q, 10, nil),
		"weight":  CutoffKey(nudged, 10, ids("a", "b")),
		"swapped": CutoffKey(swapped, 10, ids("a", "b")),
	} {
		if k == base {
			t.Errorf("changing the %s keeps the key %#x", name, k)
		}
	}
}
