// Package experiments regenerates every quantitative table and figure of
// the paper's evaluation (chapter 4, plus Table 3.1 and the chapter-3
// illustrations). Each experiment is a pure function from a Config to one
// or more printable Tables; cmd/experiments prints them and the root
// bench_test.go benchmarks them. Registry is the experiment index
// (`cmd/experiments -list` prints it).
//
// Every §4.1 session goes through runProtocol, over a corpus from
// featurizedCorpus, the one corpus cache. Its six kinds are "scenes",
// "objects", "scenes-color", "scenes-sbn", "scenes-rows" and
// "objects-rotated".
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"milret/internal/baseline"
	"milret/internal/core"
	"milret/internal/eval"
	"milret/internal/feature"
	"milret/internal/gray"
	"milret/internal/mil"
	"milret/internal/optimize"
	"milret/internal/retrieval"
	"milret/internal/synth"
	"milret/internal/workloop"
)

// Scale bounds the computational size of an experiment run. The paper's
// full databases (500 scenes, 228 objects) with all-instance multi-start
// training are reproduced by FullScale; QuickScale and BenchScale shrink
// the corpus and the optimizer budget while preserving every protocol step,
// so shapes remain comparable at a fraction of the cost.
type Scale struct {
	// ScenesPerCat / ObjectsPerCat are corpus sizes per category.
	ScenesPerCat, ObjectsPerCat int
	// TrainFrac is the potential-training-set fraction (paper: 0.2).
	TrainFrac float64
	// StartBags caps the positive bags used as optimization starts (§4.3).
	StartBags int
	// OptMaxIter bounds the inner minimizer iterations per start.
	OptMaxIter int
	// Rounds is the number of protocol training rounds (paper: 3).
	Rounds int
	// Parallelism bounds worker goroutines (0 = NumCPU).
	Parallelism int
}

// FullScale reproduces the paper's setup.
func FullScale() Scale {
	return Scale{
		ScenesPerCat:  synth.ScenesPerCategory,
		ObjectsPerCat: synth.ObjectsPerCategory,
		TrainFrac:     0.2,
		StartBags:     3, // §4.3: indistinguishable from all 5
		OptMaxIter:    80,
		Rounds:        3,
	}
}

// QuickScale is the default for cmd/experiments: small corpus, full
// protocol.
func QuickScale() Scale {
	return Scale{
		ScenesPerCat:  24,
		ObjectsPerCat: 12,
		TrainFrac:     0.25,
		StartBags:     2,
		OptMaxIter:    40,
		Rounds:        3,
	}
}

// BenchScale is the tiny configuration used by testing.B benchmarks.
func BenchScale() Scale {
	return Scale{
		ScenesPerCat:  10,
		ObjectsPerCat: 8,
		TrainFrac:     0.4,
		StartBags:     1,
		OptMaxIter:    20,
		Rounds:        2,
	}
}

// Config parameterizes one experiment run.
type Config struct {
	// Seed drives corpus generation, splits and example selection.
	Seed int64
	// Scale bounds the run size; the zero value is replaced by QuickScale.
	Scale Scale
}

func (c Config) withDefaults() Config {
	if c.Scale == (Scale{}) {
		c.Scale = QuickScale()
	}
	if c.Seed == 0 {
		c.Seed = 1998 // the thesis year; any fixed value works
	}
	return c
}

// trainConfig assembles the Diverse Density configuration for a mode.
func (c Config) trainConfig(mode core.WeightMode, beta float64) core.Config {
	return core.Config{
		Mode:        mode,
		Beta:        beta,
		StartBags:   c.Scale.StartBags,
		Parallelism: c.Scale.Parallelism,
		Opt:         optimize.Options{MaxIter: c.Scale.OptMaxIter},
	}
}

// corpusKey identifies a cached featurized corpus.
type corpusKey struct {
	kind   string // one of the six kinds featurizedCorpus accepts
	seed   int64
	perCat int
	opts   feature.Options
}

var (
	corpusMu    sync.Mutex
	corpusCache = map[corpusKey][]retrieval.Item{}
)

// featurizedCorpus generates (or returns cached) preprocessed bags for a
// corpus. The kind names both the pictures and the featurizer:
//   - "scenes" and "objects": gray-scale features (§3.5);
//   - "scenes-color": the scenes in tripled-RGB features (§5);
//   - "scenes-sbn" and "scenes-rows": the scenes in Maron & Lakshmi
//     Ratan's SBN or row colour features (§4.2.4), which ignore opts;
//   - "objects-rotated": gray-scale features of the objects with object i
//     turned i%4 quarter turns (the §5 rotation extension).
//
// Every kind shares the one cache, and featurization runs on up to 8
// images at a time.
func featurizedCorpus(kind string, seed int64, perCat int, opts feature.Options) ([]retrieval.Item, error) {
	key := corpusKey{kind, seed, perCat, opts}
	corpusMu.Lock()
	if items, ok := corpusCache[key]; ok {
		corpusMu.Unlock()
		return items, nil
	}
	corpusMu.Unlock()

	var raw []synth.Item
	featurize := func(i int) (*mil.Bag, error) {
		return feature.BagFromImage(raw[i].ID, gray.FromImage(raw[i].Image), opts)
	}
	switch kind {
	case "scenes":
		raw = synth.ScenesN(seed, perCat)
	case "objects":
		raw = synth.ObjectsN(seed, perCat)
	case "scenes-color":
		raw = synth.ScenesN(seed, perCat)
		featurize = func(i int) (*mil.Bag, error) { return feature.BagFromColorImage(raw[i].ID, raw[i].Image, opts) }
	case "scenes-sbn", "scenes-rows":
		raw = synth.ScenesN(seed, perCat)
		method := baseline.SBN
		if kind == "scenes-rows" {
			method = baseline.Rows
		}
		featurize = func(i int) (*mil.Bag, error) { return baseline.BagFromImage(raw[i].ID, raw[i].Image, method) }
	case "objects-rotated":
		raw = synth.ObjectsN(seed, perCat)
		featurize = func(i int) (*mil.Bag, error) {
			g := gray.FromImage(raw[i].Image)
			switch i % 4 {
			case 1:
				g = g.Rotate90()
			case 2:
				g = g.Rotate180()
			case 3:
				g = g.Rotate270()
			}
			return feature.BagFromImage(raw[i].ID, g, opts)
		}
	default:
		return nil, fmt.Errorf("experiments: unknown corpus kind %q", kind)
	}

	items := make([]retrieval.Item, len(raw))
	errs := make([]error, len(raw))
	workloop.Run(len(raw), 8, func(_ int, claim func() (int, bool)) {
		for i, ok := claim(); ok; i, ok = claim() {
			bag, err := featurize(i)
			items[i] = retrieval.Item{ID: raw[i].ID, Label: raw[i].Label, Bag: bag}
			errs[i] = err
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	corpusMu.Lock()
	corpusCache[key] = items
	corpusMu.Unlock()
	return items, nil
}

// splitCorpus featurizes and splits a corpus into pool and test databases.
func splitCorpus(cfg Config, kind string, opts feature.Options) (pool, test *retrieval.Database, err error) {
	perCat := cfg.Scale.ScenesPerCat
	if kind == "objects" || kind == "objects-rotated" {
		perCat = cfg.Scale.ObjectsPerCat
	}
	items, err := featurizedCorpus(kind, cfg.Seed, perCat, opts)
	if err != nil {
		return nil, nil, err
	}
	labels := make([]string, len(items))
	for i, it := range items {
		labels[i] = it.Label
	}
	sp, err := eval.StratifiedSplit(labels, cfg.Scale.TrainFrac, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	return eval.SplitDatabases(items, sp)
}

// runProtocol executes the §4.1 session for a target category.
func runProtocol(cfg Config, kind, target string, opts feature.Options, train core.Config) (*eval.ProtocolResult, error) {
	pool, test, err := splitCorpus(cfg, kind, opts)
	if err != nil {
		return nil, err
	}
	pc := eval.ProtocolConfig{
		Target: target,
		Rounds: cfg.Scale.Rounds,
		Train:  train,
		Seed:   cfg.Seed,
	}
	// Small pools cannot spare 5+5 examples; shrink proportionally while
	// keeping at least 3 positives and 3 negatives.
	poolPerCat := poolCategoryCount(pool, target)
	if poolPerCat < 5 {
		pc.NumPos = shrinkExamples(poolPerCat)
		pc.NumNeg = pc.NumPos
		pc.FalsePositivesPerRound = 3
	}
	return eval.RunProtocol(pool, test, pc)
}

func poolCategoryCount(pool *retrieval.Database, target string) int {
	n := 0
	for _, it := range pool.Items() {
		if it.Label == target {
			n++
		}
	}
	return n
}

// summarize condenses a test ranking into the scalar columns shared by the
// comparison tables.
func summarize(results []retrieval.Result, target string) (ap, window, p10, r50 float64) {
	pr := eval.PrecisionRecall(results, target)
	ap = eval.AveragePrecision(results, target)
	window = eval.AvgPrecisionWindow(pr, 0.3, 0.4)
	p10 = eval.PrecisionAt(results, target, 10)
	r50 = eval.RecallAt(results, target, 50)
	return
}

// Runner is an experiment entry point.
type Runner func(Config) ([]Table, error)

// Registry maps experiment IDs (one per table or figure of the paper) to
// runners, in presentation order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"Table31", Table31},
		{"Fig33_34", Fig33_34},
		{"Fig37_39", Fig37_39},
		{"Fig43", Fig43},
		{"Fig44", Fig44},
		{"Fig45_46", Fig45_46},
		{"Fig47", Fig47},
		{"Fig48", Fig48},
		{"Fig49", Fig49},
		{"Fig410", Fig410},
		{"Fig411", Fig411},
		{"Fig412", Fig412},
		{"Fig413", Fig413},
		{"Fig414", Fig414},
		{"Fig415_417", Fig415_417},
		{"Fig418", Fig418},
		{"Fig419", Fig419},
		{"Fig420_421", Fig420_421},
		{"Fig422", Fig422},
		{"ExtColor", ExtColor},
		{"ExtRotations", ExtRotations},
		{"ExtEMDD", ExtEMDD},
	}
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) ([]Table, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	ids := make([]string, 0)
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids)
}

// shrinkExamples picks the initial positive-example count for a pool that
// cannot spare the paper's 5: as many as possible up to 3, never more than
// the pool holds. Consuming the whole pool category is acceptable — false
// positives are mined from the remainder and the test set stays untouched.
func shrinkExamples(poolPerCat int) int {
	n := poolPerCat - 1
	if n < 3 {
		n = 3
	}
	if n > poolPerCat {
		n = poolPerCat
	}
	if n < 1 {
		n = 1
	}
	return n
}
