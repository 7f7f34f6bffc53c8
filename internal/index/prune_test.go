package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"milret/internal/mat"
)

// Every top-k scan runs behind the sketch filter, so comparing TopKPruned
// with TopK would compare the pipeline with itself. The references here
// share nothing with it: rankHead is the head of the exhaustive Rank — no
// cutoff, no heap, no seed, no box — which TestRankMatchesNaive ties to the
// naive per-bag scorer, and the tests that own their raw bags compare with
// naiveRank directly.

// rankHead returns the first k entries of the exhaustive ranking.
func rankHead(view Sharded, q Query, k int, exclude map[string]bool) []Result {
	full := view.Rank(q, exclude, 1)
	if k < len(full) {
		full = full[:k]
	}
	return full
}

// exactTiers are the Recall settings that must all be the same exact
// answer by the same mechanism: omitted, the historical "on", and beyond.
var exactTiers = []float64{0, 1, 2.5, -1}

// The tentpole acceptance property: at every exact tier the top-k scans are
// bit-identical — distances, labels, ID tie-breaks — to the head of the
// exhaustive ranking, single query and batched (single ≡ batch[i]), across
// random shard counts (1..N), tombstones, exclusions, k (through k ≥ n),
// dim (through dim < KernelBlock), and negative-weight queries that disarm
// the filter beside armed batch-mates. Batch size × parallelism walks the
// whole grid below — batches smaller than, equal to and larger than the
// worker budget, and one past the 64 queries a batch was once chunked at.
func TestQuickPrunedMatchesExact(t *testing.T) {
	batchSizes := []int{1, 2, 5, 9, 70}
	pars := []int{1, 2, 3, 8}
	iter := 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(20)
		n := 1 + r.Intn(60)
		nShards := 1 + r.Intn(5)
		single, sharded := buildShardedPair(t, r, n, dim, 3, nShards, r.Intn(2) == 0)

		qs := make([]Query, batchSizes[iter%len(batchSizes)])
		par := pars[iter/len(batchSizes)%len(pars)]
		iter++
		for qi := range qs {
			qs[qi] = randQueryFor(r, dim)
		}
		if r.Intn(3) == 0 {
			qs[r.Intn(len(qs))].Weights[r.Intn(dim)] *= -1 // disarms this query's filter only
		}
		exclude := map[string]bool{}
		for i := 0; i < n; i++ {
			if r.Intn(6) == 0 {
				exclude[fmt.Sprintf("img-%04d", i)] = true
			}
		}
		for _, k := range []int{1, n / 2, n, n + 7} {
			if k < 1 {
				k = 1
			}
			for _, view := range []Sharded{{single}, sharded} {
				opts := PruneOpts{Recall: exactTiers[r.Intn(len(exactTiers))]}
				batch := view.MultiTopKPruned(qs, k, exclude, par, opts)
				for qi, q := range qs {
					want := rankHead(Sharded{single}, q, k, exclude)
					if got := view.TopKPruned(q, k, exclude, par, opts); !reflect.DeepEqual(got, want) {
						t.Logf("seed %d: %d-shard TopKPruned(k=%d, recall=%v) query %d diverged\n got %v\nwant %v",
							seed, len(view), k, opts.Recall, qi, got, want)
						return false
					}
					if !reflect.DeepEqual(batch[qi], want) {
						t.Logf("seed %d: %d-shard MultiTopKPruned(k=%d, recall=%v)[%d] diverged",
							seed, len(view), k, opts.Recall, qi)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Cross-shard ties at the k-th boundary must break by ID through the filter:
// identical bags across shards against the exhaustive single-block ranking.
func TestPrunedCrossShardTieBreaks(t *testing.T) {
	ids := []string{"d", "a", "c", "b", "f", "e"}
	single := New()
	sharded := []*Index{New(), New()}
	for i, id := range ids {
		insts := []mat.Vector{{1, 0}}
		if err := single.Append(id, "l", insts); err != nil {
			t.Fatal(err)
		}
		if err := sharded[i%2].Append(id, "l", insts); err != nil {
			t.Fatal(err)
		}
	}
	view := Sharded{sharded[0].Snapshot(), sharded[1].Snapshot()}
	q := Query{Point: []float64{0, 0}, Weights: []float64{1, 1}}
	for k := 1; k <= len(ids)+1; k++ {
		want := rankHead(Sharded{single.Snapshot()}, q, k, nil)
		if got := view.TopK(q, k, nil, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: got %+v want %+v", k, got, want)
		}
		if got := view.MultiTopK([]Query{q}, k, nil, 3)[0]; !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d batched: got %+v want %+v", k, got, want)
		}
	}
}

// A block adopted via FromFlat (the compaction / load path) must carry
// sketches equivalent to the Append-built ones: scans over both stay
// bit-identical to the naive ranking of the live bags after deletes and
// further appends.
func TestPrunedFromFlatAndMutation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	dim, n := 6, 40
	var data []float64
	var counts []int
	var ids, labels []string
	x := New()
	bags := map[string][]mat.Vector{}
	lbs := map[string]string{}
	for i := 0; i < n; i++ {
		nInst := 1 + r.Intn(3)
		insts := make([]mat.Vector, nInst)
		for j := range insts {
			v := make(mat.Vector, dim)
			for k := range v {
				v[k] = r.NormFloat64()
			}
			insts[j] = v
			data = append(data, v...)
		}
		id := fmt.Sprintf("b%03d", i)
		ids = append(ids, id)
		labels = append(labels, "l")
		counts = append(counts, nInst)
		bags[id], lbs[id] = insts, "l"
		if err := x.Append(id, "l", insts); err != nil {
			t.Fatal(err)
		}
	}
	adopted, err := FromFlat(dim, data, counts, ids, labels)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate both the same way: tombstone a third, append two more bags.
	for i := 0; i < n; i += 3 {
		delete(bags, ids[i])
	}
	for i := 0; i < 2; i++ {
		v := make(mat.Vector, dim)
		for k := range v {
			v[k] = float64(i*dim + k)
		}
		id := fmt.Sprintf("extra%d", i)
		bags[id], lbs[id] = []mat.Vector{v}, "l"
	}
	for _, idx := range []*Index{x, adopted} {
		for i := 0; i < n; i += 3 {
			if err := idx.Delete(i); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			id := fmt.Sprintf("extra%d", i)
			if err := idx.Append(id, "l", bags[id]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		q := randQueryFor(r, dim)
		k := 1 + r.Intn(n)
		want := naiveRank(bags, lbs, q, nil)
		if k < len(want) {
			want = want[:k]
		}
		for name, s := range map[string]Snapshot{"append": x.Snapshot(), "fromflat": adopted.Snapshot()} {
			if got := (Sharded{s}).TopK(q, k, nil, 4); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%s): top-k diverged\n got %+v\nwant %+v", trial, name, got, want)
			}
		}
	}
}

// Scans against immutable snapshots must stay bit-identical to the
// exhaustive ranking while the owning index mutates concurrently — the
// -race build of this test is the concurrency half of the acceptance. Index
// is not itself goroutine-safe; as in the retrieval layer, mutations and
// Snapshot() serialize on a lock while the snapshot scans run lock-free.
func TestPrunedConcurrentMutations(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dim := 5
	x := New()
	var mu sync.Mutex // the test's stand-in for the shard lock
	for i := 0; i < 30; i++ {
		v := make(mat.Vector, dim)
		for k := range v {
			v[k] = r.NormFloat64()
		}
		if err := x.Append(fmt.Sprintf("seed%03d", i), "l", []mat.Vector{v}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var mut sync.WaitGroup
	mut.Add(1)
	go func() {
		defer mut.Done()
		mr := rand.New(rand.NewSource(13))
		// Bounded: an unthrottled mutator grows the index faster than the
		// racing scans can keep up with, ballooning the -race build's
		// runtime without adding coverage.
		for i := 0; i < 500; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := make(mat.Vector, dim)
			for k := range v {
				v[k] = mr.NormFloat64()
			}
			mu.Lock()
			err := x.Append(fmt.Sprintf("mut%04d", i), "l", []mat.Vector{v})
			if err == nil && mr.Intn(2) == 0 {
				x.Delete(mr.Intn(len(x.ids)))
			}
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var scans sync.WaitGroup
	for w := 0; w < 4; w++ {
		scans.Add(1)
		go func(w int) {
			defer scans.Done()
			sr := rand.New(rand.NewSource(int64(100 + w)))
			for trial := 0; trial < 25; trial++ {
				mu.Lock()
				s := x.Snapshot()
				mu.Unlock()
				q := randQueryFor(sr, dim)
				k := 1 + sr.Intn(10)
				if got, want := (Sharded{s}).TopK(q, k, nil, 2), rankHead(Sharded{s}, q, k, nil); !reflect.DeepEqual(got, want) {
					t.Errorf("worker %d trial %d: top-k diverged under mutation", w, trial)
					return
				}
			}
		}(w)
	}
	scans.Wait()
	close(stop)
	mut.Wait()
}

// largeCorpus builds a corpus of a few thousand bags, split round-robin
// over nShards. Every seventh bag carries a poisoned dimension — two
// instances at 1e308, beyond float32, so its box spans [MaxFloat32, +Inf] —
// which the returned query weights by zero. A third of the bags are
// tombstoned.
func largeCorpus(t *testing.T, r *rand.Rand, nShards int) (Sharded, int, Query) {
	t.Helper()
	const dim = 6
	n := 2148 + r.Intn(400)
	shards := make([]*Index, nShards)
	for i := range shards {
		shards[i] = New()
	}
	for i := 0; i < n; i++ {
		insts := make([]mat.Vector, 1+r.Intn(3))
		if i%7 == 0 {
			insts = make([]mat.Vector, 2)
		}
		for j := range insts {
			v := make(mat.Vector, dim)
			for k := range v {
				v[k] = float64(i%5) + r.NormFloat64()*0.3
			}
			if i%7 == 0 {
				v[dim-1] = 1e308
			}
			insts[j] = v
		}
		sh := shards[i%nShards]
		if err := sh.Append(fmt.Sprintf("img-%05d", i), "l", insts); err != nil {
			t.Fatal(err)
		}
		if r.Intn(3) == 0 {
			if err := sh.Delete(len(sh.ids) - 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	view := make(Sharded, nShards)
	for i, sh := range shards {
		view[i] = sh.Snapshot()
	}
	q := randQueryFor(r, dim)
	q.Weights[dim-1] = 0
	return view, n, q
}

// The pruned scan over a large corpus — poisoned boxes, tombstones,
// exclusions, 1..N shards — against the exhaustive ranking.
func TestSeededScanMatchesRank(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		view, n, q := largeCorpus(t, r, 1+int(seed)%4)
		exclude := map[string]bool{}
		for i := 0; i < n; i += 11 {
			exclude[fmt.Sprintf("img-%05d", i)] = true
		}
		for _, k := range []int{1, 10, 40} {
			want := rankHead(view, q, k, exclude)
			for _, par := range []int{1, 3} {
				if got := view.TopK(q, k, exclude, par); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d k=%d par=%d: pruned top-k diverged\n got %v\nwant %v", seed, k, par, got, want)
				}
			}
		}
	}
}

// The cross-partition cutoff protocol rides the same pipeline: partitions
// of one logical query, each seeded with the bound its peers have reported
// so far, return candidates whose merge is the head of the whole corpus's
// exhaustive ranking — and a tight seed really is used (fewer bags
// admitted than without it).
func TestExternalCutoffPartitions(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	view, _, q := largeCorpus(t, r, 4)
	const k = 10
	want := rankHead(view, q, k, nil)
	merge := func(lists ...[]Result) []Result {
		var all []Result
		for _, l := range lists {
			all = append(all, l...)
		}
		sort.Slice(all, func(i, j int) bool { return worse(all[j], all[i]) })
		return all[:k]
	}
	a, b := view[:2], view[2:]

	// The seed chain a coordinator runs: a's k-th best is the bound b
	// starts from, and the accumulated bound never undercuts the truth.
	chain := NewCutoff()
	la := a.TopKPruned(q, k, nil, 2, PruneOpts{CutoffSeed: chain.Load()})
	chain.Tighten(la[k-1].Dist)
	lb := b.TopKPruned(q, k, nil, 2, PruneOpts{CutoffSeed: chain.Load()})
	chain.Tighten(lb[k-1].Dist)
	if got := merge(la, lb); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed-chained partitions diverged\n got %v\nwant %v", got, want)
	}
	if bound := chain.Load(); bound < want[k-1].Dist || bound > la[k-1].Dist {
		t.Fatalf("chained cutoff %v outside [global k-th best %v, a's k-th best %v]", bound, want[k-1].Dist, la[k-1].Dist)
	}

	// The global k-th best is the tightest valid seed: ties at it survive.
	var seeded, unseeded PruneStats
	lb = b.TopKPruned(q, k, nil, 1, PruneOpts{CutoffSeed: want[k-1].Dist, Stats: &seeded})
	if got := merge(la, lb); !reflect.DeepEqual(got, want) {
		t.Fatalf("seeded partition diverged\n got %v\nwant %v", got, want)
	}
	b.TopKPruned(q, k, nil, 1, PruneOpts{Stats: &unseeded})
	if s, u := seeded.Admitted.Load(), unseeded.Admitted.Load(); s > u {
		t.Fatalf("a tight external seed admitted more bags (%d) than none (%d)", s, u)
	}
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if got := view.TopKPruned(q, k, nil, 2, PruneOpts{CutoffSeed: bad}); !reflect.DeepEqual(got, want) {
			t.Fatalf("CutoffSeed %v changed the answer", bad)
		}
	}
}

// At Recall r in (0, 1) the calibrated tier may drop true members, but the
// achieved recall over many queries must stay near the dial: clustered
// corpora keep the bound tight, so wrong rejections are the calibrated
// minority, not the norm. The floor is deliberately loose (r − 0.15) — this
// pins "the dial means something", not a distributional exactness claim.
func TestQuantifiedRecallBelowOne(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	dim, n, k := 8, 400, 10
	x := New()
	for i := 0; i < n; i++ {
		center := float64(i % 4)
		nInst := 1 + r.Intn(3)
		insts := make([]mat.Vector, nInst)
		for j := range insts {
			v := make(mat.Vector, dim)
			for d := range v {
				v[d] = center + r.NormFloat64()*0.3
			}
			insts[j] = v
		}
		if err := x.Append(fmt.Sprintf("bag%04d", i), "l", insts); err != nil {
			t.Fatal(err)
		}
	}
	view := Sharded{x.Snapshot()}
	const recall = 0.9
	kept, total := 0, 0
	var stats PruneStats
	for trial := 0; trial < 50; trial++ {
		q := randQueryFor(r, dim)
		exact := rankHead(view, q, k, nil)
		pruned := view.TopKPruned(q, k, nil, 4, PruneOpts{Recall: recall, Stats: &stats})
		got := map[string]bool{}
		for _, res := range pruned {
			got[res.ID] = true
		}
		for _, res := range exact {
			total++
			if got[res.ID] {
				kept++
			}
		}
	}
	achieved := float64(kept) / float64(total)
	t.Logf("achieved recall %.4f over %d results (screened %d, rejected %d)",
		achieved, total, stats.Screened.Load(), stats.Rejected.Load())
	if achieved < recall-0.15 {
		t.Fatalf("achieved recall %.4f too far below dial %.2f", achieved, recall)
	}
	if got := stats.Admitted.Load() + stats.Rejected.Load(); got != stats.Screened.Load() {
		t.Fatalf("stats invariant broken: screened %d != admitted+rejected %d", stats.Screened.Load(), got)
	}
}

// PruneStats must count every top-k scan once (one per query of a batch),
// mark the ones that could not arm the filter — a negative weight, k
// covering every bag — as Unarmed, and account every screened bag exactly
// once (Screened = Admitted + Rejected). Recall 0 screens like Recall 1.
func TestPruneStatsAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	dim := 4
	x := New()
	for i := 0; i < 200; i++ {
		v := make(mat.Vector, dim)
		for k := range v {
			v[k] = r.NormFloat64()
		}
		if err := x.Append(fmt.Sprintf("bag%03d", i), "l", []mat.Vector{v}); err != nil {
			t.Fatal(err)
		}
	}
	view := Sharded{x.Snapshot()}
	q := randQueryFor(r, dim)
	neg := randQueryFor(r, dim)
	neg.Weights[1] = -0.5

	var zero, one PruneStats
	view.TopKPruned(q, 5, nil, 1, PruneOpts{Recall: 0, Stats: &zero})
	view.TopKPruned(q, 5, nil, 1, PruneOpts{Recall: 1, Stats: &one})
	if zero.Screened.Load() == 0 || zero.Screened.Load() != one.Screened.Load() || zero.Rejected.Load() != one.Rejected.Load() {
		t.Fatalf("Recall 0 screened %d/rejected %d, Recall 1 screened %d/rejected %d: want the same mechanism",
			zero.Screened.Load(), zero.Rejected.Load(), one.Screened.Load(), one.Rejected.Load())
	}

	var stats PruneStats
	opts := PruneOpts{Stats: &stats}
	view.TopKPruned(q, 5, nil, 4, opts)                    // armed
	view.MultiTopKPruned([]Query{q, neg}, 5, nil, 4, opts) // one armed, one not
	view.TopKPruned(neg, 5, nil, 4, opts)                  // negative weight
	view.TopKPruned(q, 200, nil, 4, opts)                  // k ≥ n
	view.MultiTopKPruned([]Query{q, q}, 500, nil, 4, opts) // k ≥ n, per query
	view.TopKPruned(q, 0, nil, 4, opts)                    // k ≤ 0: no scan
	Sharded{}.TopKPruned(q, 5, nil, 4, opts)               // nothing to scan
	if got, want := stats.Scans.Load(), int64(7); got != want {
		t.Fatalf("Scans = %d, want %d", got, want)
	}
	if got, want := stats.Unarmed.Load(), int64(5); got != want {
		t.Fatalf("Unarmed = %d, want %d", got, want)
	}
	sc, ad, rj := stats.Screened.Load(), stats.Admitted.Load(), stats.Rejected.Load()
	if sc == 0 {
		t.Fatal("armed filter screened nothing")
	}
	if ad+rj != sc {
		t.Fatalf("screened %d != admitted %d + rejected %d", sc, ad, rj)
	}
}

// Edge cases: k ≤ 0 is nil, empty views return empty non-nil slices, k ≥ n
// is the full ranking.
func TestPrunedEdgeCases(t *testing.T) {
	q := Query{Point: []float64{0}, Weights: []float64{1}}
	empty := Sharded{New().Snapshot(), New().Snapshot()}
	if got := empty.TopKPruned(q, 3, nil, 2, PruneOpts{}); got == nil || len(got) != 0 {
		t.Fatalf("TopKPruned over empty shards = %+v", got)
	}
	if got := (Sharded{New().Snapshot()}).TopKPruned(q, 0, nil, 1, PruneOpts{}); got != nil {
		t.Fatalf("k=0 = %+v, want nil", got)
	}
	x := New()
	for i, id := range []string{"a", "b", "c"} {
		if err := x.Append(id, "l", []mat.Vector{{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	view := Sharded{x.Snapshot()}
	if !reflect.DeepEqual(view.TopKPruned(q, 10, nil, 2, PruneOpts{}), view.Rank(q, nil, 2)) {
		t.Fatal("k >= n diverged from Rank")
	}
	outs := empty.MultiTopKPruned([]Query{q}, 3, nil, 2, PruneOpts{})
	if len(outs) != 1 || outs[0] == nil || len(outs[0]) != 0 {
		t.Fatalf("MultiTopKPruned over empty shards = %+v", outs)
	}
}
