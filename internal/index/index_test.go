package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"milret/internal/mat"
)

// naiveBagDist is the reference scorer: full weighted squared distance per
// instance, min over the bag, no pruning.
func naiveBagDist(point, weights []float64, instances []mat.Vector) float64 {
	best := math.Inf(1)
	for _, inst := range instances {
		d := mat.WeightedSqDist(mat.Vector(point), inst, mat.Vector(weights))
		if d < best {
			best = d
		}
	}
	return best
}

// naiveRank ranks raw bags with the reference scorer and the same
// (dist, ID) ordering the index promises.
func naiveRank(bags map[string][]mat.Vector, labels map[string]string, q Query, exclude map[string]bool) []Result {
	out := []Result{}
	for id, insts := range bags {
		if exclude[id] {
			continue
		}
		out = append(out, Result{ID: id, Label: labels[id], Dist: naiveBagDist(q.Point, q.Weights, insts)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// randIndex builds an index plus the raw bags it was built from. Bags get
// 1..maxInst instances (always including some single-instance bags) and a
// deliberate duplicate-distance pair to exercise ID tie-breaks.
func randIndex(r *rand.Rand, n, dim, maxInst int) (*Index, map[string][]mat.Vector, map[string]string) {
	x := New()
	bags := make(map[string][]mat.Vector, n)
	labels := make(map[string]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("img-%04d", i)
		label := fmt.Sprintf("cat%d", i%3)
		nInst := 1 + r.Intn(maxInst)
		if i%7 == 0 {
			nInst = 1 // guarantee single-instance bags appear
		}
		var insts []mat.Vector
		for j := 0; j < nInst; j++ {
			v := make(mat.Vector, dim)
			for k := range v {
				v[k] = r.NormFloat64()
			}
			insts = append(insts, v)
		}
		if i > 0 && i%5 == 0 {
			// Duplicate the previous bag's first instance so exact distance
			// ties occur and must break by ID.
			prev := bags[fmt.Sprintf("img-%04d", i-1)]
			insts[0] = prev[0].Clone()
		}
		bags[id] = insts
		labels[id] = label
		if err := x.Append(id, label, insts); err != nil {
			panic(err)
		}
	}
	return x, bags, labels
}

func randQuery(r *rand.Rand, dim int) Query {
	q := Query{Point: make([]float64, dim), Weights: make([]float64, dim)}
	for k := 0; k < dim; k++ {
		q.Point[k] = r.NormFloat64()
		q.Weights[k] = r.Float64() * 2 // non-negative, prunable
	}
	return q
}

func TestAppendValidation(t *testing.T) {
	x := New()
	if err := x.Append("a", "l", nil); err == nil {
		t.Fatal("empty bag accepted")
	}
	if err := x.Append("a", "l", []mat.Vector{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := x.Append("b", "l", []mat.Vector{{1}}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := x.Append("c", "l", []mat.Vector{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged bag accepted")
	}
	if len(x.ids) != 1 || x.dim != 2 || x.Instances() != 1 || x.Bytes() != 16 {
		t.Fatalf("Len=%d Dim=%d Instances=%d Bytes=%d", len(x.ids), x.dim, x.Instances(), x.Bytes())
	}
}

// An empty snapshot ranks to the canonical empty result list — non-nil,
// the same representation an all-tombstoned or fully excluded scan
// produces, so tombstone≡rebuild comparisons hold bit-for-bit.
func TestEmptySnapshot(t *testing.T) {
	s := New().Snapshot()
	if got := (Sharded{s}).Rank(Query{}, nil, 0); got == nil || len(got) != 0 {
		t.Fatalf("empty Rank = %v", got)
	}
	if got := (Sharded{s}).TopK(Query{}, 5, nil, 0); got == nil || len(got) != 0 {
		t.Fatalf("empty TopK = %v", got)
	}
}

// A dim-mismatched query must panic on the caller's goroutine — recoverable
// here — at every entry point, a batch included: were the check left to a
// scan or query worker, the panic would take the process down instead.
func TestQueryDimMismatchPanics(t *testing.T) {
	x := New()
	for _, id := range []string{"a", "b", "c"} {
		if err := x.Append(id, "l", []mat.Vector{{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	s := x.Snapshot()
	good := Query{Point: []float64{0, 0, 0}, Weights: []float64{1, 1, 1}}
	bad := Query{Point: []float64{0}, Weights: []float64{1}}
	for name, scan := range map[string]func(){
		"Rank":      func() { Sharded{s}.Rank(bad, nil, 1) },
		"TopK":      func() { Sharded{s}.TopK(bad, 2, nil, 4) },
		"MultiTopK": func() { Sharded{s}.MultiTopK([]Query{good, good, bad}, 2, nil, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: dim-mismatched query did not panic", name)
				}
			}()
			scan()
		}()
	}
}

// TestRankMatchesNaive: distances and ordering must be bit-identical to the
// unpruned reference scan across random databases and weights.
func TestRankMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(40) // crosses the mat.KernelBlock boundary both ways
		x, bags, labels := randIndex(r, 1+r.Intn(60), dim, 4)
		q := randQuery(r, dim)
		exclude := map[string]bool{}
		for id := range bags {
			if r.Intn(5) == 0 {
				exclude[id] = true
			}
		}
		got := Sharded{x.Snapshot()}.Rank(q, exclude, 1+r.Intn(8))
		want := naiveRank(bags, labels, q, exclude)
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTopKMatchesNaive: the fused per-worker heap scan must select exactly
// the head of the full naive ranking for every k shape the issue calls out,
// including k > len(db).
func TestTopKMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(40)
		n := 1 + r.Intn(60)
		x, bags, labels := randIndex(r, n, dim, 4)
		q := randQuery(r, dim)
		exclude := map[string]bool{}
		for id := range bags {
			if r.Intn(6) == 0 {
				exclude[id] = true
			}
		}
		full := naiveRank(bags, labels, q, exclude)
		for _, k := range []int{1, n / 2, n, n + 5} {
			if k < 1 {
				k = 1
			}
			got := Sharded{x.Snapshot()}.TopK(q, k, exclude, 1+r.Intn(8))
			want := full
			if k < len(full) {
				want = full[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d k=%d: got %v want %v", seed, k, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiTopKMatchesPerConceptTopK: the batched multi-concept scan must
// return, for every query, exactly what its standalone TopK scan returns —
// same bags, same order, same distance bits — across random corpora, random
// query batches (including duplicates and non-prunable negative-weight
// queries), random k shapes and random worker counts.
func TestMultiTopKMatchesPerConceptTopK(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(40)
		n := 1 + r.Intn(60)
		x, bags, _ := randIndex(r, n, dim, 4)
		nq := 1 + r.Intn(6)
		qs := make([]Query, nq)
		for qi := range qs {
			qs[qi] = randQuery(r, dim)
			if r.Intn(4) == 0 {
				// Non-prunable query: pruning must be disabled for this
				// query only, without perturbing its neighbors.
				qs[qi].Weights[r.Intn(dim)] *= -1
			}
		}
		if nq > 1 && r.Intn(3) == 0 {
			qs[nq-1] = qs[0] // duplicate concepts must be independent
		}
		exclude := map[string]bool{}
		for id := range bags {
			if r.Intn(6) == 0 {
				exclude[id] = true
			}
		}
		for _, k := range []int{1, 1 + r.Intn(n), n + 3} {
			got := Sharded{x.Snapshot()}.MultiTopK(qs, k, exclude, 1+r.Intn(8))
			if len(got) != nq {
				t.Logf("seed %d: %d result lists for %d queries", seed, len(got), nq)
				return false
			}
			for qi, q := range qs {
				want := Sharded{x.Snapshot()}.TopK(q, k, exclude, 1+r.Intn(8))
				if !reflect.DeepEqual(got[qi], want) {
					t.Logf("seed %d k=%d query %d:\ngot  %v\nwant %v", seed, k, qi, got[qi], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiTopKEdgeCases(t *testing.T) {
	if got := (Sharded{Snapshot{}}).MultiTopK(nil, 5, nil, 0); got != nil {
		t.Fatalf("no queries = %v", got)
	}
	r := rand.New(rand.NewSource(3))
	x, _, _ := randIndex(r, 8, 6, 3)
	qs := []Query{randQuery(r, 6), randQuery(r, 6)}
	got := Sharded{x.Snapshot()}.MultiTopK(qs, 0, nil, 2)
	if len(got) != 2 || got[0] != nil || got[1] != nil {
		t.Fatalf("k=0 = %v", got)
	}
	empty := Sharded{New().Snapshot()}.MultiTopK([]Query{{}}, 3, nil, 1)
	if len(empty) != 1 || empty[0] == nil || len(empty[0]) != 0 {
		t.Fatalf("empty snapshot = %v", empty)
	}
}

// TestFromFlatMatchesAppend: an index adopting a flat block must scan
// identically to one built by appending the same bags, and appending after
// adoption must not disturb the adopted data.
func TestFromFlatMatchesAppend(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	dim := 9
	x, bags, labels := randIndex(r, 25, dim, 4)
	snap := x.Snapshot()

	// Rebuild the flat block in the appended index's bag order.
	var data []float64
	var counts []int
	var ids, lbs []string
	for i := 0; i < len(x.ids); i++ {
		id := x.ids[i]
		ids = append(ids, id)
		lbs = append(lbs, labels[id])
		counts = append(counts, len(bags[id]))
		for _, inst := range bags[id] {
			data = append(data, inst...)
		}
	}
	adopted, err := FromFlat(dim, data, counts, ids, lbs)
	if err != nil {
		t.Fatal(err)
	}
	if &adopted.data[0] != &data[0] {
		t.Fatal("FromFlat copied the block instead of adopting it")
	}
	q := randQuery(r, dim)
	if !reflect.DeepEqual(Sharded{adopted.Snapshot()}.Rank(q, nil, 3), Sharded{snap}.Rank(q, nil, 3)) {
		t.Fatal("adopted index ranks differently from appended index")
	}

	// Append after adoption: new bag visible, adopted block untouched.
	extra := []mat.Vector{make(mat.Vector, dim)}
	if err := adopted.Append("zzz-new", "l", extra); err != nil {
		t.Fatal(err)
	}
	if len(adopted.ids) != len(x.ids)+1 || &data[0] == &adopted.data[0] && cap(adopted.data) == len(data) {
		t.Fatalf("append after adoption: len %d", len(adopted.ids))
	}
	got := Sharded{adopted.Snapshot()}.Rank(q, nil, 2)
	if len(got) != len(x.ids)+1 {
		t.Fatalf("post-append rank covers %d of %d", len(got), len(x.ids)+1)
	}
}

func TestFromFlatValidation(t *testing.T) {
	if _, err := FromFlat(2, []float64{1, 2, 3}, []int{1}, []string{"a"}, []string{"l"}); err == nil {
		t.Fatal("wrong block size accepted")
	}
	if _, err := FromFlat(2, []float64{1, 2}, []int{0}, []string{"a"}, []string{"l"}); err == nil {
		t.Fatal("zero instance count accepted")
	}
	if _, err := FromFlat(2, nil, []int{1}, []string{"a", "b"}, []string{"l"}); err == nil {
		t.Fatal("mismatched parallel slices accepted")
	}
	x, err := FromFlat(0, nil, nil, nil, nil)
	if err != nil || len(x.ids) != 0 {
		t.Fatalf("empty FromFlat = %v, %v", x, err)
	}
}

// TestNegativeWeightsDisablePruning: with a negative weight partial sums are
// not monotone, so the scan must fall back to full accumulation and still
// match the reference exactly.
func TestNegativeWeightsDisablePruning(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dim := 24
	x, bags, labels := randIndex(r, 40, dim, 3)
	q := randQuery(r, dim)
	q.Weights[3] = -1.5
	got := Sharded{x.Snapshot()}.Rank(q, nil, 4)
	want := naiveRank(bags, labels, q, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("negative-weight rank diverged:\ngot  %v\nwant %v", got[:3], want[:3])
	}
	gotK := Sharded{x.Snapshot()}.TopK(q, 5, nil, 4)
	if !reflect.DeepEqual(gotK, want[:5]) {
		t.Fatalf("negative-weight topk diverged: got %v want %v", gotK, want[:5])
	}
}

// TestEarlyAbandonAdversarial plants bags whose distances hover exactly at
// the pruning threshold: many identical-distance bags force cutoff == dist
// equality, which strict-> pruning must keep.
func TestEarlyAbandonAdversarial(t *testing.T) {
	x := New()
	dim := 33 // not a multiple of mat.KernelBlock
	mkInst := func(scale float64) mat.Vector {
		v := make(mat.Vector, dim)
		for k := range v {
			v[k] = scale
		}
		return v
	}
	// All bags at the same distance; top-k must pick the smallest IDs.
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("tie-%02d", i)
		if err := x.Append(id, "l", []mat.Vector{mkInst(1), mkInst(2)}); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Point: make([]float64, dim), Weights: make([]float64, dim)}
	for k := range q.Weights {
		q.Weights[k] = 1
	}
	got := Sharded{x.Snapshot()}.TopK(q, 5, nil, 4)
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	for i, r := range got {
		wantID := fmt.Sprintf("tie-%02d", i)
		if r.ID != wantID || r.Dist != float64(dim) {
			t.Fatalf("result %d = %+v, want ID %s dist %v", i, r, wantID, float64(dim))
		}
	}
}

// TestSnapshotImmutableUnderAppend: a snapshot taken before appends must
// keep ranking exactly its own contents.
func TestSnapshotImmutableUnderAppend(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	dim := 8
	x, bags, labels := randIndex(r, 10, dim, 3)
	q := randQuery(r, dim)
	snap := x.Snapshot()
	before := Sharded{snap}.Rank(q, nil, 2)
	for i := 0; i < 50; i++ {
		v := make(mat.Vector, dim) // all zeros: would rank first if visible
		if err := x.Append(fmt.Sprintf("late-%02d", i), "l", []mat.Vector{v}); err != nil {
			t.Fatal(err)
		}
	}
	after := Sharded{snap}.Rank(q, nil, 2)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("snapshot contents changed under Append")
	}
	if want := naiveRank(bags, labels, q, nil); !reflect.DeepEqual(after, want) {
		t.Fatal("snapshot diverged from pre-append reference")
	}
	if got := x.Snapshot().Len(); got != 60 {
		t.Fatalf("new snapshot Len = %d, want 60", got)
	}
}

func TestExcludeAll(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	x, bags, _ := randIndex(r, 8, 4, 2)
	exclude := map[string]bool{}
	for id := range bags {
		exclude[id] = true
	}
	q := randQuery(r, 4)
	if got := (Sharded{x.Snapshot()}).Rank(q, exclude, 3); len(got) != 0 {
		t.Fatalf("Rank with all excluded = %v", got)
	}
	if got := (Sharded{x.Snapshot()}).TopK(q, 3, exclude, 3); len(got) != 0 {
		t.Fatalf("TopK with all excluded = %v", got)
	}
}

func TestTopKZeroAndNegative(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	x, _, _ := randIndex(r, 5, 4, 2)
	q := randQuery(r, 4)
	if got := (Sharded{x.Snapshot()}).TopK(q, 0, nil, 1); got != nil {
		t.Fatalf("TopK(0) = %v", got)
	}
	if got := (Sharded{x.Snapshot()}).TopK(q, -2, nil, 1); got != nil {
		t.Fatalf("TopK(-2) = %v", got)
	}
}
