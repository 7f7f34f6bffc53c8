package milret

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"milret/internal/core"
	"milret/internal/experiments"
	"milret/internal/feature"
	"milret/internal/gray"
	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/qcache"
	"milret/internal/retrieval"
	"milret/internal/synth"
)

// benchConfig is the scaled-down configuration all experiment benches run
// at: every protocol step is exercised, corpus sizes are shrunk (see
// experiments.BenchScale).
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 1998, Scale: experiments.BenchScale()}
}

// benchExperiment runs one registered experiment per iteration. These
// benches measure the end-to-end cost of regenerating a paper artifact:
// corpus featurization is cached after the first iteration, so steady-state
// numbers reflect training plus ranking plus scoring.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One bench per paper table/figure (`cmd/experiments -list` is the index).

func BenchmarkTable31(b *testing.B)    { benchExperiment(b, "Table31") }
func BenchmarkFig33_34(b *testing.B)   { benchExperiment(b, "Fig33_34") }
func BenchmarkFig37_39(b *testing.B)   { benchExperiment(b, "Fig37_39") }
func BenchmarkFig43(b *testing.B)      { benchExperiment(b, "Fig43") }
func BenchmarkFig44(b *testing.B)      { benchExperiment(b, "Fig44") }
func BenchmarkFig45_46(b *testing.B)   { benchExperiment(b, "Fig45_46") }
func BenchmarkFig47(b *testing.B)      { benchExperiment(b, "Fig47") }
func BenchmarkFig48(b *testing.B)      { benchExperiment(b, "Fig48") }
func BenchmarkFig49(b *testing.B)      { benchExperiment(b, "Fig49") }
func BenchmarkFig410(b *testing.B)     { benchExperiment(b, "Fig410") }
func BenchmarkFig411(b *testing.B)     { benchExperiment(b, "Fig411") }
func BenchmarkFig412(b *testing.B)     { benchExperiment(b, "Fig412") }
func BenchmarkFig413(b *testing.B)     { benchExperiment(b, "Fig413") }
func BenchmarkFig414(b *testing.B)     { benchExperiment(b, "Fig414") }
func BenchmarkFig415_417(b *testing.B) { benchExperiment(b, "Fig415_417") }
func BenchmarkFig418(b *testing.B)     { benchExperiment(b, "Fig418") }
func BenchmarkFig419(b *testing.B)     { benchExperiment(b, "Fig419") }
func BenchmarkFig420_421(b *testing.B) { benchExperiment(b, "Fig420_421") }
func BenchmarkFig422(b *testing.B)     { benchExperiment(b, "Fig422") }

// --- Component benchmarks and ablations ---

func benchImage(seed int64) *gray.Image {
	items := synth.ScenesN(seed, 1)
	return gray.FromImage(items[0].Image)
}

// BenchmarkSmoothSample measures the §3.1.2 reduction with the integral
// image in place.
func BenchmarkSmoothSample(b *testing.B) {
	im := benchImage(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gray.SmoothSample(im, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmoothSampleNaive is the ablation: per-block pixel loops instead
// of the integral image, at the same 50%-overlap geometry.
func BenchmarkSmoothSampleNaive(b *testing.B) {
	im := benchImage(1)
	h := 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := make([]float64, h*h)
		fy := float64(im.H) / float64(h)
		fx := float64(im.W) / float64(h)
		for r := 0; r < h; r++ {
			r0, r1 := int(float64(r)*fy), int(float64(r+2)*fy)
			if r1 > im.H {
				r1 = im.H
			}
			for c := 0; c < h; c++ {
				c0, c1 := int(float64(c)*fx), int(float64(c+2)*fx)
				if c1 > im.W {
					c1 = im.W
				}
				var sum float64
				for y := r0; y < r1; y++ {
					for x := c0; x < c1; x++ {
						sum += im.Row(y)[x]
					}
				}
				out[r*h+c] = sum / float64((r1-r0)*(c1-c0))
			}
		}
	}
}

// BenchmarkBagGeneration measures the full §3.5 preprocessing of one image.
func BenchmarkBagGeneration(b *testing.B) {
	im := benchImage(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := feature.BagFromImage("bench", im, feature.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddImageScenes measures ingest end to end: 500 synth scenes
// (100 per category, 96×64 RGBA) through AddImage into a fresh in-memory
// database — gray conversion, the §3.5 pipeline and the index append.
func BenchmarkAddImageScenes(b *testing.B) {
	items := synth.ScenesN(11, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := NewDatabase(Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range items {
			if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddImageKeepsOneCopyOfRows: ingesting BenchmarkAddImageScenes' corpus
// grows the live heap by about the index's rows and no more, because the
// index is the only owner of a bag's instances. The corpus' tail capacity is
// about its length, so the bound leaves room for metadata, not a copy.
func TestAddImageKeepsOneCopyOfRows(t *testing.T) {
	items := synth.ScenesN(11, 100)
	db, err := NewDatabase(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before, rowsBefore := liveHeap(), db.Stats().IndexBytes
	for _, it := range items {
		if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
			t.Fatal(err)
		}
	}
	grew, rows := liveHeap()-before, db.Stats().IndexBytes-rowsBefore
	t.Logf("live heap grew %d bytes for %d bytes of index rows (%.2f×)", grew, rows, float64(grew)/float64(rows))
	if float64(grew) > 1.2*float64(rows) {
		t.Fatalf("live heap grew %d bytes, > 1.2 × the %d bytes of index rows", grew, rows)
	}
	runtime.KeepAlive(items)
}

// TestTrainingExampleFetchAllocs: fetching a training set's bags costs two
// allocations per bag — the bag and its instance headers, views over the
// index's rows — plus the dataset and its two slices.
func TestTrainingExampleFetchAllocs(t *testing.T) {
	db := testDB(t, 3, "car", "lamp")
	pos, neg := idsOf(db, "car", 3), idsOf(db, "lamp", 2)
	if len(pos) != 3 || len(neg) != 2 {
		t.Fatalf("examples %v, %v", pos, neg)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := db.dataset(pos, neg); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(2*(len(pos)+len(neg)) + 3); allocs > want {
		t.Fatalf("dataset of %d bags: %.0f allocations, want ≤ %.0f", len(pos)+len(neg), allocs, want)
	}
}

// TestListingReadsSlotsAlone: listing and looking up IDs and labels reads
// the slots and builds no bag. Over 20,000 bags in four shards IDs makes a
// bounded number of allocations, not two per bag, and Label none.
func TestListingReadsSlotsAlone(t *testing.T) {
	db, err := NewDatabase(Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const n = 20000
	for i := 0; i < n; i++ {
		bag := &mil.Bag{ID: fmt.Sprintf("img-%05d", i), Instances: []mat.Vector{{float64(i), 1}}}
		if err := db.db.Add(retrieval.Item{ID: bag.ID, Label: fmt.Sprint("cat-", i%7), Bag: bag}); err != nil {
			t.Fatal(err)
		}
	}
	ids := db.IDs()
	if len(ids) != n || ids[0] != "img-00000" || ids[n-1] != fmt.Sprintf("img-%05d", n-1) {
		t.Fatalf("IDs: %d, first %q, last %q; want %d in insertion order", len(ids), ids[0], ids[len(ids)-1], n)
	}
	if got := db.Labels(); len(got) != 7 || got[0] != "cat-0" {
		t.Fatalf("Labels = %v, want the 7 categories sorted", got)
	}
	if label, ok := db.Label("img-00009"); !ok || label != "cat-2" {
		t.Fatalf("Label(img-00009) = %q, %v", label, ok)
	}
	if _, ok := db.Label("absent"); ok {
		t.Fatal("Label found an absent ID")
	}
	listAllocs := testing.AllocsPerRun(5, func() { db.IDs() })
	lookupAllocs := testing.AllocsPerRun(100, func() { db.Label("img-00009") })
	t.Logf("IDs over %d bags: %.0f allocations; Label: %.0f", n, listAllocs, lookupAllocs)
	if listAllocs > 40 || lookupAllocs != 0 {
		t.Fatalf("IDs made %.0f allocations (want ≤ 40) and Label %.0f (want 0)", listAllocs, lookupAllocs)
	}
}

// benchTrainingSet builds a deterministic MIL dataset at paper-like
// dimensions (100-d instances, 40 per bag).
func benchTrainingSet(nPos, nNeg int) *mil.Dataset {
	r := rand.New(rand.NewSource(3))
	mk := func(id string) *mil.Bag {
		bag := &mil.Bag{ID: id}
		for j := 0; j < 40; j++ {
			v := make([]float64, 100)
			for k := range v {
				v[k] = r.NormFloat64()
			}
			bag.Instances = append(bag.Instances, v)
		}
		return bag
	}
	ds := &mil.Dataset{}
	for i := 0; i < nPos; i++ {
		ds.Positive = append(ds.Positive, mk(fmt.Sprintf("p%d", i)))
	}
	for i := 0; i < nNeg; i++ {
		ds.Negative = append(ds.Negative, mk(fmt.Sprintf("n%d", i)))
	}
	return ds
}

// BenchmarkTrainOriginal / Identical / Constrained measure one DD training
// with a single start bag under each weight scheme.
func benchTrain(b *testing.B, mode core.WeightMode, beta float64) {
	b.Helper()
	ds := benchTrainingSet(5, 5)
	cfg := core.Config{Mode: mode, Beta: beta, StartBags: 1}
	cfg.Opt.MaxIter = 15
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainOriginal(b *testing.B)    { benchTrain(b, core.Original, 0) }
func BenchmarkTrainIdentical(b *testing.B)   { benchTrain(b, core.Identical, 0) }
func BenchmarkTrainConstrained(b *testing.B) { benchTrain(b, core.SumConstraint, 0.5) }

// BenchmarkRankDatabase measures a full ranking scan of 500 bags (the
// paper's scene-database size) and BenchmarkTopK the heap-based head-only
// variant — the retrieval ablation.
func benchRankDB() (*retrieval.Database, *core.Concept) {
	r := rand.New(rand.NewSource(4))
	db := retrieval.NewDatabase()
	for i := 0; i < 500; i++ {
		bag := &mil.Bag{ID: fmt.Sprintf("img-%03d", i)}
		for j := 0; j < 40; j++ {
			v := make([]float64, 100)
			for k := range v {
				v[k] = r.NormFloat64()
			}
			bag.Instances = append(bag.Instances, v)
		}
		if err := db.Add(retrieval.Item{ID: bag.ID, Label: "l", Bag: bag}); err != nil {
			panic(err)
		}
	}
	point := make([]float64, 100)
	weights := make([]float64, 100)
	for k := range weights {
		weights[k] = 1
	}
	return db, &core.Concept{Point: point, Weights: weights}
}

func BenchmarkRankDatabase(b *testing.B) {
	db, concept := benchRankDB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retrieval.Rank(db, concept, retrieval.Options{})
	}
}

func BenchmarkTopK20(b *testing.B) {
	db, concept := benchRankDB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retrieval.TopK(db, concept, 20, retrieval.Options{})
	}
}

// --- Flat columnar engine benchmarks (internal/index) ---
//
// Synthetic corpora at three scales exercise the flat scan: 1k items at the
// paper's full geometry (40 instances × 100 dims), 10k and 50k at reduced
// per-item footprints so the blocks stay memory-friendly.

// benchCorpusDB builds a deterministic synthetic database of n bags with
// inst instances of dim dimensions each, plus a concept near one category.
// Items cluster around per-category centers the way featurized images
// cluster by scene category — the workload the engine actually serves —
// rather than as isotropic noise, whose distance concentration is the
// pathological worst case for any pruning scheme.
const benchCorpusCats = 8

// benchCats scales category count with corpus size the way curated CBIR
// corpora do (Corel-style collections run ~10² to low-10³ images per
// category): a fixed 8 categories at 100k bags would make 12.5k images
// "relevant" to every query, which no retrieval workload looks like.
func benchCats(n int) int {
	if c := n / 1500; c > benchCorpusCats {
		return c
	}
	return benchCorpusCats
}

// benchCenters draws the per-category cluster centers; both the corpus and
// the multi-concept benches derive them from the same seed so concepts land
// near real categories without retraining.
func benchCenters(r *rand.Rand, dim, nCats int) [][]float64 {
	centers := make([][]float64, nCats)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for k := range centers[c] {
			centers[c][k] = r.NormFloat64() * 2
		}
	}
	return centers
}

func benchCorpusDB(n, inst, dim int) (*retrieval.Database, *core.Concept) {
	return benchCorpusDBSharded(n, inst, dim, 1)
}

// benchRegionProtos is the shared pool of background region prototypes.
// Featurized image regions repeat a limited vocabulary of surface types
// (sky, foliage, water, pavement …), each compact in feature space; a bag's
// clutter is a handful of those types re-sampled with small within-type
// spread, not isotropic wide-band noise.
const benchRegionProtos = 32

// benchClutterTypes is how many distinct region types one image's clutter
// draws from — images repeat their few backgrounds across regions.
const benchClutterTypes = 3

func benchCorpusDBSharded(n, inst, dim, shards int) (*retrieval.Database, *core.Concept) {
	nCats := benchCats(n)
	r := rand.New(rand.NewSource(42))
	centers := benchCenters(r, dim, nCats)
	protos := make([][]float64, benchRegionProtos)
	for t := range protos {
		protos[t] = make([]float64, dim)
		for k := range protos[t] {
			protos[t][k] = r.NormFloat64() * 2
		}
	}
	db := retrieval.NewDatabaseSharded(shards)
	for i := 0; i < n; i++ {
		cat := i % nCats
		bag := &mil.Bag{ID: fmt.Sprintf("img-%06d", i)}
		// The MIL premise: one region matches the image's concept, the rest
		// is background clutter from the image's few region types. The
		// matching instance lands at a random position in the bag.
		match := r.Intn(inst)
		var types [benchClutterTypes]int
		for t := range types {
			types[t] = r.Intn(benchRegionProtos)
		}
		for j := 0; j < inst; j++ {
			v := make([]float64, dim)
			if j == match {
				for k := range v {
					v[k] = centers[cat][k] + r.NormFloat64()*0.4
				}
			} else {
				proto := protos[types[r.Intn(benchClutterTypes)]]
				for k := range v {
					v[k] = proto[k] + r.NormFloat64()*0.4
				}
			}
			bag.Instances = append(bag.Instances, v)
		}
		if err := db.Add(retrieval.Item{ID: bag.ID, Label: fmt.Sprintf("cat%d", cat), Bag: bag}); err != nil {
			panic(err)
		}
	}
	// The concept sits near category 0's center, as a trained concept would.
	point := make([]float64, dim)
	weights := make([]float64, dim)
	for k := range weights {
		point[k] = centers[0][k] + r.NormFloat64()*0.05
		weights[k] = 0.5 + r.Float64()
	}
	return db, &core.Concept{Point: point, Weights: weights}
}

func benchFlatRank(b *testing.B, n, inst, dim int) {
	db, concept := benchCorpusDB(n, inst, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retrieval.Rank(db, concept, retrieval.Options{})
	}
}

func benchFlatTopK(b *testing.B, n, inst, dim, k int) {
	db, concept := benchCorpusDB(n, inst, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retrieval.TopK(db, concept, k, retrieval.Options{})
	}
}

func BenchmarkRank1k(b *testing.B)  { benchFlatRank(b, 1_000, 40, 100) }
func BenchmarkRank10k(b *testing.B) { benchFlatRank(b, 10_000, 10, 100) }
func BenchmarkRank50k(b *testing.B) { benchFlatRank(b, 50_000, 4, 64) }

func BenchmarkTopK1k(b *testing.B)  { benchFlatTopK(b, 1_000, 40, 100, 20) }
func BenchmarkTopK10k(b *testing.B) { benchFlatTopK(b, 10_000, 10, 100, 20) }
func BenchmarkTopK50k(b *testing.B) { benchFlatTopK(b, 50_000, 4, 64, 20) }

// Small corpora, where a scan's fixed costs (cutoff seeding, heap fill)
// are a visible share: 500 bags, and the 2k-bag shape of one partition of a
// distributed deployment.
func BenchmarkTopK500x10(b *testing.B) { benchFlatTopK(b, 500, 10, 100, 20) }
func BenchmarkTopK2kx10(b *testing.B)  { benchFlatTopK(b, 2_000, 10, 100, 20) }

// The same bag shape as the 1k/10k benches (10 regions per image, 100
// features) at the size where the box screen rejects nearly every bag.
func BenchmarkTopK100k(b *testing.B) { benchFlatTopK(b, 100_000, 10, 100, 20) }

// Delete-heavy workload: the same 10k corpus with 30% of the bags
// tombstoned (below the auto-compaction threshold shape: deletes spread
// evenly so dead rows accumulate). The pair with BenchmarkTopK10k measures
// the scan-time cost of carrying tombstones; BenchmarkTopKCompacted10k is
// the same live set after an explicit Compact, the floor the tombstoned
// scan should stay near.
func benchDeletedDB(n, inst, dim int, compact bool) (*retrieval.Database, *core.Concept) {
	db, concept := benchCorpusDB(n, inst, dim)
	for i := 0; i < n; i++ {
		if i%10 < 3 {
			if err := db.Delete(fmt.Sprintf("img-%06d", i)); err != nil {
				panic(err)
			}
		}
	}
	if compact {
		db.Compact()
	}
	return db, concept
}

func BenchmarkTopKDeleted10k(b *testing.B) {
	db, concept := benchDeletedDB(10_000, 10, 100, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retrieval.TopK(db, concept, 20, retrieval.Options{})
	}
}

func BenchmarkTopKCompacted10k(b *testing.B) {
	db, concept := benchDeletedDB(10_000, 10, 100, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retrieval.TopK(db, concept, 20, retrieval.Options{})
	}
}

// BenchmarkMutationChurn measures the write path itself: an add, a label
// update and a delete per iteration against a 10k-bag database (auto-
// compaction included when its threshold trips).
func BenchmarkMutationChurn(b *testing.B) {
	db, _ := benchCorpusDB(10_000, 10, 100)
	r := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("churn-%09d", i)
		bag := &mil.Bag{ID: id, Instances: []mat.Vector{make(mat.Vector, 100)}}
		for k := range bag.Instances[0] {
			bag.Instances[0][k] = r.NormFloat64()
		}
		if err := db.Add(retrieval.Item{ID: id, Label: "churn", Bag: bag}); err != nil {
			b.Fatal(err)
		}
		if err := db.Update(retrieval.Item{ID: id, Label: "churn2", Bag: bag}); err != nil {
			b.Fatal(err)
		}
		if err := db.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sharded scans (index.Sharded via retrieval.NewDatabaseSharded) ---
//
// The same 10k corpus spread over 1, 2 and 4 shards: the shards fan out
// with a shared top-k cutoff and results are bit-identical to the 1-shard
// scan (property-tested in internal/retrieval), so the trio measures pure
// fan-out overhead/win at identical output. On single-core CI the variants
// should track each other closely; multi-core hardware is where the
// per-shard goroutines separate.
func benchShardedTopK(b *testing.B, shards int) {
	db, concept := benchCorpusDBSharded(10_000, 10, 100, shards)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retrieval.TopK(db, concept, 20, retrieval.Options{})
	}
}

func BenchmarkTopKSharded10kx1(b *testing.B) { benchShardedTopK(b, 1) }
func BenchmarkTopKSharded10kx2(b *testing.B) { benchShardedTopK(b, 2) }
func BenchmarkTopKSharded10kx4(b *testing.B) { benchShardedTopK(b, 4) }

// BenchmarkShardChurn10k is BenchmarkMutationChurn over a 4-shard database:
// each iteration's add, label-only update and delete land in one shard's
// lock while the other shards stay untouched — the write path the per-shard
// locking is designed to keep cheap. The label update exercises the O(1)
// in-place swap rather than tombstone-and-re-append.
func BenchmarkShardChurn10k(b *testing.B) {
	db, _ := benchCorpusDBSharded(10_000, 10, 100, 4)
	r := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("churn-%09d", i)
		bag := &mil.Bag{ID: id, Instances: []mat.Vector{make(mat.Vector, 100)}}
		for k := range bag.Instances[0] {
			bag.Instances[0][k] = r.NormFloat64()
		}
		if err := db.Add(retrieval.Item{ID: id, Label: "churn", Bag: bag}); err != nil {
			b.Fatal(err)
		}
		if err := db.UpdateLabel(id, "churn2"); err != nil {
			b.Fatal(err)
		}
		if err := db.Delete(id); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batched multi-concept scans (index.MultiTopK via retrieval.TopKMany) ---
//
// benchCorpusConcepts builds one trained-looking concept per category,
// reusing the corpus's cluster centers. Scoring all of them against one
// pinned snapshot is the false-positive-mining / multi-user workload; the
// Sequential variant is the same B single scans issued one after another,
// each split across every core, so the pair measures what scheduling whole
// queries onto cores buys at identical results (the property tests prove
// MultiTopK ≡ per-concept TopK). On one core the two are the same work.
func benchCorpusConcepts(nc, dim int) []retrieval.Scorer {
	r := rand.New(rand.NewSource(42))
	centers := benchCenters(r, dim, benchCorpusCats)
	scorers := make([]retrieval.Scorer, nc)
	for i := range scorers {
		point := make([]float64, dim)
		weights := make([]float64, dim)
		for k := range point {
			point[k] = centers[i%benchCorpusCats][k] + r.NormFloat64()*0.05
			weights[k] = 0.5 + r.Float64()
		}
		scorers[i] = &core.Concept{Point: point, Weights: weights}
	}
	return scorers
}

func benchMultiTopK(b *testing.B, n, inst, dim, nc, k int, sequential bool) {
	db, _ := benchCorpusDB(n, inst, dim)
	scorers := benchCorpusConcepts(nc, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sequential {
			for _, s := range scorers {
				retrieval.TopK(db, s, k, retrieval.Options{})
			}
		} else {
			retrieval.TopKMany(db, scorers, k, retrieval.Options{})
		}
	}
}

// The snapshot pair: 8 concepts as one batch vs 8 sequential TopK scans over
// the same 10k corpus.
func BenchmarkMultiTopK10kx8(b *testing.B)      { benchMultiTopK(b, 10_000, 10, 100, 8, 20, false) }
func BenchmarkSequentialTopK10kx8(b *testing.B) { benchMultiTopK(b, 10_000, 10, 100, 8, 20, true) }

func BenchmarkMultiTopK1kx8(b *testing.B)       { benchMultiTopK(b, 1_000, 40, 100, 8, 20, false) }
func BenchmarkSequentialTopK1kx8(b *testing.B)  { benchMultiTopK(b, 1_000, 40, 100, 8, 20, true) }
func BenchmarkMultiTopK50kx8(b *testing.B)      { benchMultiTopK(b, 50_000, 4, 64, 8, 20, false) }
func BenchmarkSequentialTopK50kx8(b *testing.B) { benchMultiTopK(b, 50_000, 4, 64, 8, 20, true) }

// --- Concept cache benchmarks (internal/qcache via Database.TrainCached) ---
//
// The trio measures the query-path cache at the public API: Hit is the
// steady state of repeat-heavy traffic (fingerprint + LRU lookup, no
// optimizer), Miss is the cold path (fingerprint + full training + LRU
// insert, forced by purging between iterations), and Coalesced10 is ten
// concurrent identical queries sharing one training run — the singleflight
// contract. The acceptance floor is Hit ≥ 10× faster than Miss; in
// practice the gap is orders of magnitude, which is the whole point of
// serving repeat queries from a reusable learned representation.

// benchCachedDB wraps a synthetic corpus in a public Database with the
// concept cache enabled, skipping image featurization: the bags are drawn
// directly at the paper's geometry (40 instances × 100 dims).
func benchCachedDB() (*Database, []string, []string) {
	rdb, _ := benchCorpusDB(64, 40, 100)
	d := &Database{db: rdb, cache: qcache.New(8 << 20)}
	// Category 0 items sit at i%benchCorpusCats == 0.
	pos := []string{"img-000000", "img-000008", "img-000016"}
	neg := []string{"img-000001", "img-000002"}
	return d, pos, neg
}

// benchCacheOpts keeps one training run at tens of milliseconds (one start
// bag, short optimizer budget) so the miss path is realistic but the bench
// stays CI-friendly.
var benchCacheOpts = TrainOptions{Mode: IdenticalWeights, MaxIters: 15, StartBags: 1}

func BenchmarkQueryCacheHit(b *testing.B) {
	d, pos, neg := benchCachedDB()
	if _, out, err := d.TrainCachedContext(bg, pos, neg, benchCacheOpts); err != nil || out != CacheMiss {
		b.Fatalf("warm-up: %v, %v", out, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := d.TrainCachedContext(bg, pos, neg, benchCacheOpts)
		if err != nil || out != CacheHit {
			b.Fatalf("outcome %v, err %v", out, err)
		}
	}
}

func BenchmarkQueryCacheMiss(b *testing.B) {
	d, pos, neg := benchCachedDB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.cache = qcache.New(8 << 20) // keep every iteration cold; an empty cache's cost is noise
		_, out, err := d.TrainCachedContext(bg, pos, neg, benchCacheOpts)
		if err != nil || out != CacheMiss {
			b.Fatalf("outcome %v, err %v", out, err)
		}
	}
}

// BenchmarkQueryCacheCoalesced10: ten goroutines issue the same cold query
// concurrently; per iteration exactly one trains and nine coalesce, so
// ns/op tracks one training run plus coalescing overhead — not ten runs.
func BenchmarkQueryCacheCoalesced10(b *testing.B) {
	d, pos, neg := benchCachedDB()
	b.ReportAllocs()
	b.ResetTimer()
	var misses, shared int64
	for i := 0; i < b.N; i++ {
		d.cache = qcache.New(8 << 20)
		var wg sync.WaitGroup
		for g := 0; g < 10; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := d.TrainCachedContext(bg, pos, neg, benchCacheOpts); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		st := d.cache.Stats()
		misses += st.Misses
		shared += st.Coalesced + st.Hits
	}
	b.StopTimer()
	if misses != int64(b.N) {
		b.Fatalf("%d training runs for %d iterations, want one per iteration", misses, b.N)
	}
	if shared != int64(9*b.N) {
		b.Fatalf("%d coalesced or hit callers, want %d shared callers", shared, 9*b.N)
	}
}

// BenchmarkCorpusGeneration measures synthetic corpus drawing throughput.
func BenchmarkCorpusGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synth.ScenesN(int64(i+1), 1)
	}
}

// BenchmarkPublicAPIQuery measures a public-API train+retrieve cycle.
func BenchmarkPublicAPIQuery(b *testing.B) {
	db, err := NewDatabase(Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, it := range synth.ObjectsN(5, 4) {
		if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
			b.Fatal(err)
		}
	}
	pos := []string{"object-car-00", "object-car-01"}
	neg := []string{"object-lamp-00"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		concept, err := db.Train(pos, neg, TrainOptions{
			Mode: ConstrainedWeights, Beta: 0.5, MaxIters: 15, StartBags: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		db.Retrieve(concept, 10)
	}
}

// Extension benches (paper §5 future work + EM-DD follow-up).

func BenchmarkExtColor(b *testing.B)     { benchExperiment(b, "ExtColor") }
func BenchmarkExtRotations(b *testing.B) { benchExperiment(b, "ExtRotations") }
func BenchmarkExtEMDD(b *testing.B)      { benchExperiment(b, "ExtEMDD") }

// BenchmarkTrainEMDD mirrors BenchmarkTrainIdentical for the EM-DD
// refinement, the cost ablation of ExtEMDD.
func BenchmarkTrainEMDD(b *testing.B) {
	ds := benchTrainingSet(5, 5)
	cfg := core.Config{Mode: core.Identical, StartBags: 1}
	cfg.Opt.MaxIter = 15
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrainEMDD(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
