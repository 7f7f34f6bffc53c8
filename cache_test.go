package milret

import (
	"context"
	"encoding/hex"
	"reflect"
	"strings"
	"sync"
	"testing"

	"milret/internal/core"
	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/optimize"
	"milret/internal/synth"
)

// cacheTestDB is testDB with the concept cache enabled.
func cacheTestDB(t *testing.T, mb, perCat int, cats ...string) *Database {
	t.Helper()
	db, err := NewDatabase(Options{ConceptCacheMB: mb})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, c := range cats {
		want[c] = true
	}
	for _, it := range synth.ObjectsN(9, perCat) {
		if !want[it.Label] {
			continue
		}
		if err := db.AddImage(it.ID, it.Label, it.Image); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

var cacheTestOpts = TrainOptions{Mode: IdenticalWeights, MaxIters: 10, StartBags: 1}

// bg is the context of every test call that has no wait to bound.
var bg = context.Background()

// ddEvals reads the process-cumulative trainer-call counter; tests diff two
// readings to prove whether a call invoked the optimizer.
func ddEvals() int64 {
	dd, _ := core.TrainerEvals()
	return dd
}

func TestTrainCachedOutcomes(t *testing.T) {
	db := cacheTestDB(t, 8, 3, "car", "lamp")
	pos := idsOf(db, "car", 2)
	neg := idsOf(db, "lamp", 1)

	before := ddEvals()
	c1, out, err := db.TrainCachedContext(bg, pos, neg, cacheTestOpts)
	if err != nil || out != CacheMiss {
		t.Fatalf("first call: outcome %v, err %v; want miss", out, err)
	}
	if ddEvals() == before {
		t.Fatal("miss did not invoke the trainer")
	}

	before = ddEvals()
	c2, out, err := db.TrainCachedContext(bg, pos, neg, cacheTestOpts)
	if err != nil || out != CacheHit {
		t.Fatalf("repeat call: outcome %v, err %v; want hit", out, err)
	}
	if got := ddEvals(); got != before {
		t.Fatalf("cache hit invoked the trainer (%d new evals)", got-before)
	}
	if c1.c != c2.c {
		t.Fatal("hit returned a different concept than the training run produced")
	}

	before = ddEvals()
	opts := cacheTestOpts
	opts.BypassCache = true
	if _, out, err := db.TrainCachedContext(bg, pos, neg, opts); err != nil || out != CacheBypassed {
		t.Fatalf("bypass call: outcome %v, err %v", out, err)
	}
	if ddEvals() == before {
		t.Fatal("bypass did not invoke the trainer")
	}

	st := db.Stats()
	if st.Cache == nil {
		t.Fatal("Stats.Cache nil with the cache enabled")
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Bypassed != 1 {
		t.Fatalf("cache stats = %+v", *st.Cache)
	}
	if st.Cache.Entries != 1 || st.Cache.Bytes <= 0 || st.Cache.Bytes > st.Cache.CapacityBytes {
		t.Fatalf("cache occupancy = %+v", *st.Cache)
	}
}

// TestExhaustiveTrainerKeysMiss: a cache warmed by the build before the
// successive-halving race — keys tagged trainer version 1 — must not answer
// this build's requests: the race may train a different concept for the same
// examples, and a hit has to be what a retrain would return.
func TestExhaustiveTrainerKeysMiss(t *testing.T) {
	db := cacheTestDB(t, 8, 3, "car", "lamp")
	pos := idsOf(db, "car", 2)
	neg := idsOf(db, "lamp", 1)
	ds, err := db.dataset(pos, neg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Mode: core.Identical, StartBags: cacheTestOpts.StartBags, Opt: optimize.Options{MaxIter: cacheTestOpts.MaxIters}}
	if trainFingerprintAt(trainerVersion, ds, cfg.Mode, cfg) != trainFingerprint(ds, cfg.Mode, cfg) {
		t.Fatal("trainFingerprint does not tag keys with trainerVersion")
	}
	stale := &core.Concept{Point: make([]float64, ds.Dim()), Weights: make([]float64, ds.Dim())}
	db.cache.Do(trainFingerprintAt(1, ds, cfg.Mode, cfg), func() (*core.Concept, error) { return stale, nil })

	c, out, err := db.TrainCachedContext(bg, pos, neg, cacheTestOpts)
	if err != nil || out != CacheMiss {
		t.Fatalf("outcome %v, err %v; want a miss beside the version-1 entry", out, err)
	}
	if c.c == stale {
		t.Fatal("served the concept cached under the exhaustive trainer's key")
	}
}

// pinnedKeys are trainFingerprint digests captured before the α-hack mode
// was deleted. Every concept-cache sidecar in the field is keyed by them: a
// renumbered mode, a dropped or moved tag slot, or a changed default here
// would turn every warm entry into a miss without a trainerVersion bump.
var pinnedKeys = map[string]string{
	"original":             "6951891e8def9da0be6cc34fffb288646c5ed3e9027b808cee77084ff5a35852",
	"identical":            "dce9f0e9d36be9822890418ea3f47775df825a7ce5a813e53d9564aeb0f195dd",
	"sum-constraint":       "befb64954c9d2fb2bdf43480ba1e58d6a4de65dafd9841003f5bd7c3b4844fa9",
	"original/tuned":       "e69d2eeafc7d7c6a78397ab5f6754fc647f70939a50d58085e4f67d7f07b4871",
	"identical/tuned":      "c56c4ef48f104d90979f77f007feb573dab383b76f6d613bb4a22b98431bc8f0",
	"sum-constraint/tuned": "846d3e197cb807cb20be43be1595dee3e2a341594554bc943a91cea0ee4d3754",
}

// pinnedKeyDataset is three positive and two negative bags of exactly
// representable numbers, so the keys do not depend on featurization.
func pinnedKeyDataset() *mil.Dataset {
	bag := func(id string, seed float64) *mil.Bag {
		b := &mil.Bag{ID: id}
		for i := 0; i < 3; i++ {
			v := mat.NewVector(4)
			for k := range v {
				v[k] = seed + float64(i)/4 - float64(k)/8
			}
			b.Instances = append(b.Instances, v)
		}
		return b
	}
	return &mil.Dataset{
		Positive: []*mil.Bag{bag("p0", 1), bag("p1", 2), bag("p2", 3)},
		Negative: []*mil.Bag{bag("n0", -1), bag("n1", -2)},
	}
}

// TestPinnedKeys: each surviving mode at its defaults, then with a
// non-default β, iteration cap and a start-bag cap below the positive count
// (which makes the key order-sensitive), hashes to the pinned digest.
func TestPinnedKeys(t *testing.T) {
	ds := pinnedKeyDataset()
	tuned := func(mode core.WeightMode) core.Config {
		return core.Config{Mode: mode, Beta: 0.25, StartBags: 2, Opt: optimize.Options{MaxIter: 40}}
	}
	for name, cfg := range map[string]core.Config{
		"original":             {Mode: core.Original},
		"identical":            {Mode: core.Identical},
		"sum-constraint":       {Mode: core.SumConstraint},
		"original/tuned":       tuned(core.Original),
		"identical/tuned":      tuned(core.Identical),
		"sum-constraint/tuned": tuned(core.SumConstraint),
	} {
		k := trainFingerprint(ds, cfg.Mode, cfg)
		if got := hex.EncodeToString(k[:]); got != pinnedKeys[name] {
			t.Errorf("%s: key %s, pinned %s", name, got, pinnedKeys[name])
		}
	}
}

func TestCacheDisabledOutcome(t *testing.T) {
	db := testDB(t, 2, "car")
	pos := idsOf(db, "car", 1)
	if _, out, err := db.TrainCachedContext(bg, pos, nil, cacheTestOpts); err != nil || out != CacheDisabled {
		t.Fatalf("outcome %v, err %v; want disabled", out, err)
	}
	if db.Stats().Cache != nil {
		t.Fatal("Stats.Cache non-nil with the cache disabled")
	}
}

// TestCacheHitRankingsBitIdentical is the acceptance property: a cache hit
// must rank the database bit-identically to a fresh training run with the
// same examples and options.
func TestCacheHitRankingsBitIdentical(t *testing.T) {
	db := cacheTestDB(t, 8, 4, "car", "lamp", "pants")
	pos := idsOf(db, "car", 2)
	neg := idsOf(db, "lamp", 2)
	exclude := append(append([]string{}, pos...), neg...)

	if _, out, err := db.TrainCachedContext(bg, pos, neg, cacheTestOpts); err != nil || out != CacheMiss {
		t.Fatalf("warm-up: %v, %v", out, err)
	}
	hitConcept, out, err := db.TrainCachedContext(bg, pos, neg, cacheTestOpts)
	if err != nil || out != CacheHit {
		t.Fatalf("hit: %v, %v", out, err)
	}
	fresh := cacheTestOpts
	fresh.BypassCache = true
	freshConcept, _, err := db.TrainCachedContext(bg, pos, neg, fresh)
	if err != nil {
		t.Fatal(err)
	}

	if hitConcept.NegLogDD() != freshConcept.NegLogDD() {
		t.Fatalf("objective differs: %v vs %v", hitConcept.NegLogDD(), freshConcept.NegLogDD())
	}
	if !reflect.DeepEqual(hitConcept.Point(), freshConcept.Point()) ||
		!reflect.DeepEqual(hitConcept.Weights(), freshConcept.Weights()) {
		t.Fatal("concept geometry differs between hit and fresh run")
	}
	got := db.RetrieveExcluding(hitConcept, db.Len(), exclude)
	want := db.RetrieveExcluding(freshConcept, db.Len(), exclude)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rankings differ:\n hit:   %v\n fresh: %v", got, want)
	}
}

// TestCachePermutationAndMutation: permuted example order hits (the
// fingerprint canonicalizes bag order), while mutating an example image
// misses (the fingerprint hashes the actual vectors) — and after the
// mutation the served concept reflects the new pixels, not the cached old
// ones.
func TestCachePermutationAndMutation(t *testing.T) {
	db := cacheTestDB(t, 8, 3, "car", "lamp")
	pos := idsOf(db, "car", 2)
	neg := idsOf(db, "lamp", 2)
	// StartBags covering all positives keeps the key order-insensitive
	// (every positive seeds starts regardless of order); MaxIters is small
	// because these trainings are only cache-key probes.
	opts := TrainOptions{Mode: IdenticalWeights, MaxIters: 5, StartBags: 2}

	if _, out, err := db.TrainCachedContext(bg, pos, neg, opts); err != nil || out != CacheMiss {
		t.Fatalf("warm-up: %v, %v", out, err)
	}
	permPos := []string{pos[1], pos[0]}
	permNeg := []string{neg[1], neg[0]}
	if _, out, err := db.TrainCachedContext(bg, permPos, permNeg, opts); err != nil || out != CacheHit {
		t.Fatalf("permuted examples: outcome %v, err %v; want hit", out, err)
	}

	// A start-bag cap below the positive count makes positive order part
	// of the key: the permutation selects different optimization starts.
	capped := opts
	capped.StartBags = 1
	if _, out, err := db.TrainCachedContext(bg, pos, neg, capped); err != nil || out != CacheMiss {
		t.Fatalf("capped warm-up: %v, %v", out, err)
	}
	if _, out, err := db.TrainCachedContext(bg, permPos, neg, capped); err != nil || out != CacheMiss {
		t.Fatalf("capped permuted positives: outcome %v, err %v; want miss", out, err)
	}
	if _, out, err := db.TrainCachedContext(bg, pos, permNeg, capped); err != nil || out != CacheHit {
		t.Fatalf("capped permuted negatives: outcome %v, err %v; want hit", out, err)
	}

	// Label-only updates leave the bag vectors untouched — still a hit.
	if err := db.UpdateImage(pos[0], "car-relabelled", nil); err != nil {
		t.Fatal(err)
	}
	if _, out, err := db.TrainCachedContext(bg, pos, neg, opts); err != nil || out != CacheHit {
		t.Fatalf("after label-only update: outcome %v, err %v; want hit", out, err)
	}

	// Replacing the pixels changes the bag: the same IDs must now miss.
	repl := synth.ObjectsN(77, 1)[0]
	if err := db.UpdateImage(pos[0], "car", repl.Image); err != nil {
		t.Fatal(err)
	}
	if _, out, err := db.TrainCachedContext(bg, pos, neg, opts); err != nil || out != CacheMiss {
		t.Fatalf("after image update: outcome %v, err %v; want miss", out, err)
	}
}

// TestBatchTrainThenRetrieve: duplicate specs in one batch pay for one
// training run, and each ranking of the batch equals the single-query path
// exactly.
func TestBatchTrainThenRetrieve(t *testing.T) {
	db := cacheTestDB(t, 8, 3, "car", "lamp", "pants")
	carPos := idsOf(db, "car", 2)
	carNeg := idsOf(db, "lamp", 1)
	pantsPos := idsOf(db, "pants", 2)

	specs := []QuerySpec{
		{Positives: carPos, Negatives: carNeg, Opts: cacheTestOpts},
		{Positives: pantsPos, Opts: cacheTestOpts},
		{Positives: carPos, Negatives: carNeg, Opts: cacheTestOpts}, // duplicate of 0
	}
	concepts, outcomes, err := db.TrainManyContext(bg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(concepts) != 3 || len(outcomes) != 3 {
		t.Fatalf("got %d concepts, %d outcomes", len(concepts), len(outcomes))
	}
	if outcomes[0] != CacheMiss || outcomes[1] != CacheMiss || outcomes[2] != CacheHit {
		t.Fatalf("outcomes = %v, want [miss miss hit]", outcomes)
	}
	rankings, err := db.RetrieveMany(concepts, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rankings[0], rankings[2]) {
		t.Fatal("duplicate specs ranked differently")
	}
	// Element-wise equivalence with the single-query path.
	for i, sp := range specs {
		c, _, err := db.TrainCachedContext(bg, sp.Positives, sp.Negatives, sp.Opts)
		if err != nil {
			t.Fatal(err)
		}
		want := db.RetrieveExcluding(c, 5, nil)
		if !reflect.DeepEqual(rankings[i], want) {
			t.Fatalf("spec %d: batch ranking differs from single-query path", i)
		}
	}
	if cs, _, err := db.TrainManyContext(bg, nil); err != nil || len(cs) != 0 {
		t.Fatalf("empty batch: %d concepts, %v", len(cs), err)
	}
	// A failing spec is named by its index.
	specs[1].Positives = []string{"no-such-image"}
	if _, _, err := db.TrainManyContext(bg, specs); err == nil || !strings.Contains(err.Error(), "query 1") {
		t.Fatalf("failing spec not identified: %v", err)
	}
}

// TestConcurrentMutationsVsCachedQueries interleaves cached queries (hits,
// misses and coalesced flights), single and batched retrievals with
// Add/Delete/Update/Compact mutations; the -race run is the assertion, plus
// every query must keep returning a usable concept.
func TestConcurrentMutationsVsCachedQueries(t *testing.T) {
	db := cacheTestDB(t, 4, 3, "car", "lamp")
	pos := idsOf(db, "car", 2)
	neg := idsOf(db, "lamp", 1)
	churn := synth.ObjectsN(33, 1)[0]

	const iters = 8
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c, _, err := db.TrainCachedContext(bg, pos, neg, cacheTestOpts)
				if err != nil {
					t.Error(err)
					return
				}
				if got := db.Retrieve(c, 3); len(got) == 0 {
					t.Error("empty retrieval")
					return
				}
				many, err := db.RetrieveMany([]*Concept{c, c, c}, 3, nil)
				if err != nil || len(many) != 3 || len(many[2]) == 0 {
					t.Errorf("batched retrieval = %v, %v", many, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := db.AddImage("churn", "x", churn.Image); err != nil {
				t.Error(err)
				return
			}
			if err := db.UpdateImage("churn", "y", nil); err != nil {
				t.Error(err)
				return
			}
			if err := db.DeleteImage("churn"); err != nil {
				t.Error(err)
				return
			}
			if err := db.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// The cache must still serve after the churn settles.
	if _, out, err := db.TrainCachedContext(bg, pos, neg, cacheTestOpts); err != nil || out != CacheHit {
		t.Fatalf("post-churn: outcome %v, err %v", out, err)
	}
}
