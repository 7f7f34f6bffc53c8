package main

import (
	"bytes"
	"fmt"
	"image/png"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"milret"
	"milret/internal/feature"
	"milret/internal/gray"
	"milret/internal/mil"
	"milret/internal/store"
	"milret/internal/synth"
)

// Fixed request geometry, shared by every workload.
const (
	topK         = 20
	precisionAtK = 10
	// probeConcepts caps how many recorded concepts the layer probes
	// replay: enough to average over their severalfold cost differences,
	// few enough that a sweep stays under 100 ms.
	probeConcepts = 16
	cacheMB       = 64
	storeShards   = 4 // shards of mixed_rw's store, partitions of distributed_fanout
	// vectorBeta is the β the vector workloads send: the paper's
	// constrained-weights setting (§3.6.3). The server default β=0 leaves
	// only the [0,1] box, and on generated vectors Diverse Density then
	// zeroes most weights and locks onto a shared clutter prototype
	// (precision near 0.2); β=0.5 finds the category (precision 1.0).
	// cold_feedback's featurized scenes keep the server default.
	vectorBeta = 0.5
)

// profile sizes a run. The quick profile exists for `go test`: every
// code path and check runs, on corpora too small to measure anything.
type profile struct {
	// fingerprints is how many query fingerprints the cache-hit workloads
	// rotate through. A fingerprint's scan cost is a property of its
	// trained weights and varies fivefold between fingerprints, so the
	// median over 16 of them moved ±13 % with the seed alone; 64 halves
	// that, for 2.4 s of priming per set-up, and still fits the concept
	// cache with room to spare.
	fingerprints int
	// positives and negatives are the examples per query: the paper's 3
	// and 2. The quick profile trains on 1 and 1 — a third of the starts —
	// because under the race detector a paper-size training takes seconds.
	positives, negatives int
	scanBags             int // warm_scan and mixed_rw corpus
	fanoutBags           int // distributed_fanout corpus
	inst, dim            int
	scenesPerCat         int // cold_feedback corpus, ×5 categories
	ingestPool           int
	warmup               time.Duration
	// Set-up is timed setupMin to setupMax times, until the timings add
	// up to setupBudget; setup_s is their median.
	setupMin, setupMax int
	setupBudget        time.Duration
	// Layer probes repeat at least probeMin times and until probeBudget
	// is spent, at most probeMax times; the median is reported.
	probeMin, probeMax int
	probeBudget        time.Duration
	// precisionFloor is cold_feedback's run-level precision_at_10 check.
	precisionFloor float64
}

var (
	fullProfile = profile{
		fingerprints: 64, positives: 3, negatives: 2, scanBags: 20000, fanoutBags: 8000, inst: 10, dim: 100, scenesPerCat: 100, ingestPool: 64,
		warmup: 2 * time.Second, setupMin: 3, setupMax: 9, setupBudget: 2500 * time.Millisecond,
		probeMin: 3, probeMax: 30, probeBudget: 100 * time.Millisecond,
		precisionFloor: 0.7,
	}
	quickProfile = profile{
		fingerprints: 16, positives: 1, negatives: 1, scanBags: 300, fanoutBags: 300, inst: 10, dim: 100, scenesPerCat: 8, ingestPool: 4,
		warmup: 50 * time.Millisecond, setupMin: 1, setupMax: 1,
		probeMin: 1, probeMax: 1,
	}
)

// ingestItem is one member of mixed_rw's ingest pool: a non-example image
// ID and the PNG it always receives.
type ingestItem struct {
	ID    string
	Label string
	PNG   []byte // raw PNG bytes
	B64   string // the same, as the request body carries them
}

// world is everything one workload's run derives from its seed: the
// store files the program opens, the ground truth the checks use, and
// the request schedule's raw material.
type world struct {
	name string
	dir  string
	prof profile

	// storePath is the flat file or manifest the program opens; partPaths
	// are distributed_fanout's per-partition snapshot files. Both empty
	// for cold_feedback, which ingests scenes instead.
	storePath string
	partPaths []string

	vec    *vectorCorpus
	scenes *sceneCorpus
	cat    map[string]int // ground-truth category per image ID

	// oracle is what the stored corpus must rank like: the generator's
	// records, with the ingest pool's bags replaced by the featurization
	// of the images the pool IDs receive.
	oracle   []store.Record
	ingested map[string]*mil.Bag // the pool's featurized bags, by ID

	sets      []exampleSet // the rotating fingerprints (none for cold_feedback)
	mutateIDs []string     // seeded permutation of non-example, non-pool IDs
	pool      []ingestItem

	genSeconds float64 // bench.corpus_gen_s: generator + file writing
}

// buildWorld generates the workload's inputs under dir.
func buildWorld(name string, seed int64, prof profile, dir string) (*world, error) {
	start := time.Now()
	w := &world{name: name, dir: dir, prof: prof}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	switch name {
	case wlWarmScan:
		err = w.buildVector(seed, prof.scanBags, 1, false)
	case wlMixedRW:
		err = w.buildVector(seed, prof.scanBags, storeShards, true)
	case wlFanout:
		err = w.buildVector(seed, prof.fanoutBags, storeShards, false)
		for i := 0; i < storeShards; i++ {
			w.partPaths = append(w.partPaths, store.ShardPath(w.storePath, i))
		}
	case wlColdFeedback:
		w.scenes = genSceneCorpus(seed, prof.scenesPerCat)
		w.cat = w.scenes.Cat
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w.genSeconds = time.Since(start).Seconds()
	return w, err
}

func (w *world) buildVector(seed int64, n, shards int, withPool bool) error {
	w.vec = genVectorCorpus(seed, n, w.prof.inst, w.prof.dim)
	w.cat = w.vec.Cat
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	w.sets = genExampleSets(r, w.vec, w.prof.fingerprints, w.prof.positives, w.prof.negatives)

	reserved := map[string]bool{}
	for _, es := range w.sets {
		for _, id := range es.ids() {
			reserved[id] = true
		}
	}
	var free []string
	for _, rec := range w.vec.Records {
		if !reserved[rec.ID] {
			free = append(free, rec.ID)
		}
	}
	r.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	if withPool {
		images := synth.ScenesN(seed, (w.prof.ingestPool+len(synth.SceneCategories)-1)/len(synth.SceneCategories))
		for i := 0; i < w.prof.ingestPool; i++ {
			raw, b64, err := pngBase64(images[i])
			if err != nil {
				return err
			}
			w.pool = append(w.pool, ingestItem{ID: free[i], Label: "ingested-" + images[i].Label, PNG: raw, B64: b64})
		}
		free = free[w.prof.ingestPool:]
	}
	w.mutateIDs = free
	if err := w.buildOracle(); err != nil {
		return err
	}

	flat := filepath.Join(w.dir, "corpus.milret")
	if err := store.WriteFlatFile(flat, w.vec.Dim, w.vec.Records); err != nil {
		return fmt.Errorf("write corpus: %w", err)
	}
	if shards == 1 {
		w.storePath = flat
		return nil
	}
	w.storePath = filepath.Join(w.dir, "store", "store.milret")
	if err := os.MkdirAll(filepath.Dir(w.storePath), 0o755); err != nil {
		return err
	}
	if err := milret.Reshard(flat, w.storePath, shards); err != nil {
		return err
	}
	return os.Remove(flat)
}

// buildOracle derives the oracle's records. An ingested image is stored
// as whatever the featurizer makes of its pixels, so the oracle runs the
// same public featurizer on the same PNG bytes; everything else is the
// generator's own vectors.
func (w *world) buildOracle() error {
	w.oracle = w.vec.Records
	if len(w.pool) == 0 {
		return nil
	}
	w.ingested = make(map[string]*mil.Bag, len(w.pool))
	for _, it := range w.pool {
		img, err := png.Decode(bytes.NewReader(it.PNG))
		if err != nil {
			return fmt.Errorf("decode pool image %s: %w", it.ID, err)
		}
		bag, err := feature.BagFromImage(it.ID, gray.FromImage(img), feature.Options{})
		if err != nil {
			return fmt.Errorf("featurize pool image %s: %w", it.ID, err)
		}
		w.ingested[it.ID] = bag
	}
	w.oracle = make([]store.Record, len(w.vec.Records))
	for i, rec := range w.vec.Records {
		if bag, ok := w.ingested[rec.ID]; ok {
			rec.Bag = bag
		}
		w.oracle[i] = rec
	}
	return nil
}

// storeDir is the directory holding every file of the workload's store.
func (w *world) storeDir() string { return filepath.Dir(w.storePath) }

// resetStoreSideFiles removes what a torn-down stack leaves next to the
// snapshots, so the next set-up repetition starts from the same bytes as
// the first.
func (w *world) resetStoreSideFiles() error {
	if w.storePath == "" {
		return nil
	}
	return removeSideFiles(w.storeDir())
}

// removeSideFiles deletes the mutation logs and concept-cache sidecars in
// a store directory, leaving the snapshots (and manifest).
func removeSideFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".wal", ".ccache":
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
