package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

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

// TestFromFlatSketchesMatchPerBag: the open's sketch pass, split into
// chunks of bags over the workers, stores exactly the sketches one
// mat.PackBagSketch call per bag stores, each in its lane of a box tile,
// for a block of several chunks.
func TestFromFlatSketchesMatchPerBag(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	const dim, bags = 70, 3000
	var data []float64
	counts := make([]int, bags)
	ids, lbs := make([]string, bags), make([]string, bags)
	for i := range counts {
		counts[i] = 1 + r.Intn(6)
		ids[i], lbs[i] = fmt.Sprint("b", i), "l"
		for k := 0; k < counts[i]*dim; k++ {
			data = append(data, r.NormFloat64())
		}
	}
	x, err := FromFlat(dim, data, counts, ids, lbs)
	if err != nil {
		t.Fatal(err)
	}
	bd := boxDims(dim)
	box := make([]float32, mat.BoxStride*bd)
	row := 0
	for i, c := range counts {
		mat.PackBagSketch(dim, data[row*dim:(row+c)*dim], box)
		row += c
		// Bag i is lane i%8 of tile i/8: dimension k's lo at k·16 + lane,
		// its hi eight float32s on.
		tile := x.baseBoxes[i/8*16*bd:]
		for k := 0; k < bd; k++ {
			if lo, hi := tile[16*k+i%8], tile[16*k+8+i%8]; lo != box[2*k] || hi != box[2*k+1] {
				t.Fatalf("bag %d dim %d: FromFlat's box [%v, %v], PackBagSketch's [%v, %v]", i, k, lo, hi, box[2*k], box[2*k+1])
			}
		}
	}
	if want := (bags + 7) / 8 * 16 * bd; len(x.baseBoxes) != want {
		t.Fatalf("%d bags packed into %d float32s, want %d: whole tiles, no more", bags, len(x.baseBoxes), want)
	}
}

// BenchmarkFromFlat opens a 20,000-bag block of 10 instances × 100
// dimensions — the zero-copy open, whose cost is the sketch pass.
func BenchmarkFromFlat(b *testing.B) {
	const dim, bags, per = 100, 20000, 10
	r := rand.New(rand.NewSource(1))
	data := make([]float64, bags*per*dim)
	for i := range data {
		data[i] = r.Float64()
	}
	counts := make([]int, bags)
	ids, lbs := make([]string, bags), make([]string, bags)
	for i := range counts {
		counts[i], ids[i], lbs[i] = per, fmt.Sprint("b", i), "l"
	}
	b.SetBytes(int64(len(data)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromFlat(dim, data, counts, ids, lbs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopKFlatTail scans a shard in the layout a write leaves after a
// flat open: 5,000 bags adopted by FromFlat, then 5,000 more appended, 10
// instances × 100 dimensions each, drawn around 50 category centres so the
// box screen rejects most bags. Every bag's screen picks its sketch from
// the base or the tail, which BenchmarkTopK10k (Append only) never mixes.
func BenchmarkTopKFlatTail(b *testing.B) {
	const dim, bags, per, cats = 100, 10000, 10, 50
	r := rand.New(rand.NewSource(3))
	centers := make([][]float64, cats)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for k := range centers[c] {
			centers[c][k] = r.NormFloat64() * 3
		}
	}
	data := make([]float64, bags*per*dim)
	for i := 0; i < bags; i++ {
		c := centers[i%cats]
		for j := 0; j < per; j++ {
			row := data[(i*per+j)*dim:][:dim]
			for k := range row {
				row[k] = c[k] + r.NormFloat64()*0.5
			}
		}
	}
	base := bags / 2
	counts := make([]int, base)
	ids, lbs := make([]string, base), make([]string, base)
	for i := range counts {
		counts[i], ids[i], lbs[i] = per, fmt.Sprint("b", i), "l"
	}
	x, err := FromFlat(dim, data[:base*per*dim:base*per*dim], counts, ids, lbs)
	if err != nil {
		b.Fatal(err)
	}
	for i := base; i < bags; i++ {
		insts := make([]mat.Vector, per)
		for j := range insts {
			insts[j] = data[(i*per+j)*dim:][:dim]
		}
		if err := x.Append(fmt.Sprint("b", i), "l", insts); err != nil {
			b.Fatal(err)
		}
	}
	q := Query{Point: centers[0], Weights: make([]float64, dim)}
	for k := range q.Weights {
		q.Weights[k] = 1
	}
	view := Sharded{x.Snapshot()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.TopK(q, 20, nil, 1)
	}
}
