package experiments

import (
	"milret/internal/core"
	"milret/internal/feature"
	"milret/internal/mil"
	"milret/internal/retrieval"
)

// The Ext* experiments go beyond the paper's figures: they evaluate the
// extensions the paper's §5 proposes as future work (color features,
// rotation instances) and the canonical follow-up algorithm (EM-DD),
// using the same protocol and corpora as the reproduced figures.

// ExtColor compares gray-scale features against the tripled-RGB variant of
// §5 on two color-sensitive scene categories. The paper reports "no
// significant improvements" from the color variant; this experiment
// reproduces that comparison on the synthetic corpus.
func ExtColor(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:     "ExtColor",
		Title:  "Extension: gray-scale vs tripled-RGB features (§5 future work)",
		Header: []string{"category", "features", "dims", "AP", "prec@recall.3-.4"},
		Notes:  "paper §5: no significant improvement was observed from RGB tripling",
	}
	train := cfg.trainConfig(core.SumConstraint, 0.5)
	for _, target := range []string{"sunset", "field"} {
		res, err := runProtocol(cfg, "scenes", target, feature.Options{}, train)
		if err != nil {
			return nil, err
		}
		ap, window, _, _ := summarize(res.TestRanking, target)
		t.AddRow(target, "gray h²", 100, ap, window)

		cres, err := runProtocol(cfg, "scenes-color", target, feature.Options{}, train)
		if err != nil {
			return nil, err
		}
		cap_, cwindow, _, _ := summarize(cres.TestRanking, target)
		t.AddRow(target, "color 3h²", 300, cap_, cwindow)
	}
	return []Table{t}, nil
}

// ExtRotations measures the §5 rotation-instance extension: a corpus whose
// query categories appear at arbitrary quarter-turn rotations is searched
// with and without rotation instances. The rotation variant must win there,
// at the cost of 4× larger bags.
func ExtRotations(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:     "ExtRotations",
		Title:  "Extension: quarter-turn rotation instances (§5 future work)",
		Header: []string{"corpus", "instances/bag", "AP", "prec@recall.3-.4"},
		Notes:  "rotated-query corpus: every database image randomly rotated by 0/90/180/270 degrees",
	}
	for _, rot := range []bool{false, true} {
		opts := feature.Options{Rotations: rot}
		res, err := runProtocol(cfg, "objects-rotated", "car", opts, cfg.trainConfig(core.Identical, 0))
		if err != nil {
			return nil, err
		}
		ap, window, _, _ := summarize(res.TestRanking, "car")
		t.AddRow("rotated objects", opts.MaxInstances(), ap, window)
	}
	return []Table{t}, nil
}

// ExtEMDD compares the paper's exact multi-start DD maximization against
// the EM-DD refinement on the same task: quality (AP) and cost (objective
// evaluations).
func ExtEMDD(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:     "ExtEMDD",
		Title:  "Extension: Diverse Density vs EM-DD (quality and training cost)",
		Header: []string{"algorithm", "AP", "prec@recall.3-.4", "train evals"},
		Notes:  "EM-DD optimizes a one-instance-per-bag surrogate; evals count objective evaluations",
	}
	pool, test, err := splitCorpus(cfg, "scenes", feature.Options{})
	if err != nil {
		return nil, err
	}
	// The feedback protocol drives core.Train internally, so the two
	// algorithms are compared on one training round over identical
	// examples: the first 5 waterfall bags and 5 non-waterfall bags of the
	// pool.
	ds := datasetForTarget(pool.Items(), "waterfall", 5, 5)
	dd, err := core.Train(ds, cfg.trainConfig(core.Identical, 0))
	if err != nil {
		return nil, err
	}
	em, err := core.TrainEMDD(ds, cfg.trainConfig(core.Identical, 0))
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name    string
		concept *core.Concept
	}{
		{"diverse density", dd},
		{"em-dd", em},
	} {
		ranking := retrieval.Rank(test, row.concept, retrieval.Options{})
		ap, window, _, _ := summarize(ranking, "waterfall")
		t.AddRow(row.name, ap, window, row.concept.Evals)
	}
	return []Table{t}, nil
}

// datasetForTarget assembles a MIL dataset from labelled items: the first
// nPos bags carrying the target label become positives and the first nNeg
// other bags become negatives. Counts are clamped to availability.
func datasetForTarget(items []retrieval.Item, target string, nPos, nNeg int) *mil.Dataset {
	ds := &mil.Dataset{}
	for _, it := range items {
		if it.Label == target && len(ds.Positive) < nPos {
			ds.Positive = append(ds.Positive, it.Bag)
		}
		if it.Label != target && len(ds.Negative) < nNeg {
			ds.Negative = append(ds.Negative, it.Bag)
		}
	}
	return ds
}
