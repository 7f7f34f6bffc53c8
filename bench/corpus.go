package main

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"image/png"
	"math/rand"

	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/store"
	"milret/internal/synth"
)

// The vector generator is bench_test.go's honest corpus, seeded: bags
// cluster around per-category centers the way featurized images cluster
// by scene category, one instance per bag matches the category (the MIL
// premise) and the rest is clutter re-sampled from a few of 32 shared
// region prototypes — not isotropic noise, whose distance concentration
// is the pathological worst case for every pruning tier.
const (
	corpusMinCats     = 8
	corpusBagsPerCat  = 1500
	corpusProtos      = 32
	corpusClutterKind = 3
	corpusSigma       = 0.4
	// corpusGeometrySeed fixes where the category centers and region
	// prototypes sit, whatever the run's seed: a collection's categories
	// do not change between samples of it. The run's seed draws everything
	// else — every bag's vectors, backgrounds and matching instance, the
	// example sets, the mutation order. How prunable a corpus is depends
	// on that geometry, and letting it vary made query_p50_ms a ±17 %
	// function of the seed before any code changed.
	corpusGeometrySeed = 20000
)

// vectorCorpus is a generated bag corpus plus its ground truth. The
// program under test only ever sees Records written to a store file;
// Cat is what precision is scored against and Records' vectors are what
// the oracle recomputes rankings from.
type vectorCorpus struct {
	Dim     int
	Records []store.Record
	// Cat maps image ID → generator category. Replies carry a mutable
	// label; precision never reads it.
	Cat   map[string]int
	NCats int
	// ByCat lists IDs per category in generation order.
	ByCat [][]string
	// Clutter records which region prototypes each bag's background draws
	// from, so example sets can avoid positives that share a background.
	Clutter map[string][corpusClutterKind]int
}

func corpusCats(n int) int {
	if c := n / corpusBagsPerCat; c > corpusMinCats {
		return c
	}
	return corpusMinCats
}

func imageID(i int) string { return fmt.Sprintf("img-%06d", i) }

// genVectorCorpus builds n bags of inst instances × dim dimensions from
// the seed. All rows live in one backing block so the corpus costs one
// allocation, like the flat store it is written to.
func genVectorCorpus(seed int64, n, inst, dim int) *vectorCorpus {
	r := rand.New(rand.NewSource(seed))
	geom := rand.New(rand.NewSource(corpusGeometrySeed))
	nCats := corpusCats(n)
	gauss := func(count int, scale float64) [][]float64 {
		out := make([][]float64, count)
		for i := range out {
			out[i] = make([]float64, dim)
			for k := range out[i] {
				out[i][k] = geom.NormFloat64() * scale
			}
		}
		return out
	}
	centers := gauss(nCats, 2)
	protos := gauss(corpusProtos, 2)

	c := &vectorCorpus{
		Dim:     dim,
		Records: make([]store.Record, n),
		Cat:     make(map[string]int, n),
		NCats:   nCats,
		ByCat:   make([][]string, nCats),
		Clutter: make(map[string][corpusClutterKind]int, n),
	}
	block := make([]float64, n*inst*dim)
	for i := 0; i < n; i++ {
		cat := i % nCats
		id := imageID(i)
		match := r.Intn(inst)
		var kinds [corpusClutterKind]int
		for t := range kinds {
			kinds[t] = r.Intn(corpusProtos)
		}
		bag := &mil.Bag{ID: id, Instances: make([]mat.Vector, inst)}
		for j := 0; j < inst; j++ {
			base := centers[cat]
			if j != match {
				base = protos[kinds[r.Intn(corpusClutterKind)]]
			}
			row := block[(i*inst+j)*dim : (i*inst+j+1)*dim : (i*inst+j+1)*dim]
			for k := range row {
				row[k] = base[k] + r.NormFloat64()*corpusSigma
			}
			bag.Instances[j] = row
		}
		c.Records[i] = store.Record{ID: id, Label: fmt.Sprintf("cat%d", cat), Bag: bag}
		c.Cat[id] = cat
		c.Clutter[id] = kinds
		c.ByCat[cat] = append(c.ByCat[cat], id)
	}
	return c
}

// exampleSet is one query's training examples and the category its
// positives share (the precision target).
type exampleSet struct {
	Positives []string
	Negatives []string
	Cat       int
}

func (e exampleSet) ids() []string {
	return append(append([]string(nil), e.Positives...), e.Negatives...)
}

// pickDistinct draws n distinct elements of pool, skipping taken ones
// and, when reject is non-nil, candidates it refuses given the picks so
// far.
func pickDistinct(r *rand.Rand, pool []string, n int, taken map[string]bool, reject func(picked []string, cand string) bool) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		id := pool[r.Intn(len(pool))]
		if taken[id] || (reject != nil && reject(out, id)) {
			continue
		}
		taken[id] = true
		out = append(out, id)
	}
	return out
}

// sharesClutter reports whether cand's background draws from a region
// prototype one of the picked bags also draws from.
func (c *vectorCorpus) sharesClutter(picked []string, cand string) bool {
	for _, p := range picked {
		for _, a := range c.Clutter[p] {
			for _, b := range c.Clutter[cand] {
				if a == b {
					return true
				}
			}
		}
	}
	return false
}

// genExampleSets draws count example sets — nPos positives of one
// category, nNeg negatives of others — with no ID used twice overall, so
// reserved IDs (examples) and mutation targets can be kept disjoint.
// A set's positives share no background prototype: the MIL premise is
// that the concept is the only thing positives have in common, and three
// examples with the same background teach Diverse Density the background
// (about one generated set in ten, each scoring precision near 0.3 and
// making the run-level figure a function of the seed).
func genExampleSets(r *rand.Rand, c *vectorCorpus, count, nPos, nNeg int) []exampleSet {
	taken := map[string]bool{}
	sets := make([]exampleSet, count)
	for q := range sets {
		cat := q % c.NCats
		es := exampleSet{Cat: cat, Positives: pickDistinct(r, c.ByCat[cat], nPos, taken, c.sharesClutter)}
		for len(es.Negatives) < nNeg {
			other := r.Intn(c.NCats)
			if other == cat {
				continue
			}
			es.Negatives = append(es.Negatives, pickDistinct(r, c.ByCat[other], 1, taken, nil)...)
		}
		sets[q] = es
	}
	return sets
}

// sceneCorpus is the featurized-image corpus of cold_feedback: the
// harness keeps the images (the program receives them through AddImage)
// and the generator's category per ID.
type sceneCorpus struct {
	Items []synth.Item
	Cat   map[string]int
	ByCat [][]string
}

func genSceneCorpus(seed int64, perCat int) *sceneCorpus {
	c := &sceneCorpus{Cat: map[string]int{}, ByCat: make([][]string, len(synth.SceneCategories))}
	catIndex := map[string]int{}
	for i, name := range synth.SceneCategories {
		catIndex[name] = i
	}
	c.Items = synth.ScenesN(seed, perCat)
	for _, it := range c.Items {
		ci := catIndex[it.Label]
		c.Cat[it.ID] = ci
		c.ByCat[ci] = append(c.ByCat[ci], it.ID)
	}
	return c
}

// pngBase64 encodes one synthetic image the way an ingest body carries it.
func pngBase64(it synth.Item) (raw []byte, b64 string, err error) {
	var buf bytes.Buffer
	if err := png.Encode(&buf, it.Image); err != nil {
		return nil, "", fmt.Errorf("encode %s: %w", it.ID, err)
	}
	return buf.Bytes(), base64.StdEncoding.EncodeToString(buf.Bytes()), nil
}
