package experiments

import (
	"milret/internal/core"
	"milret/internal/feature"
)

// Fig420_421 reproduces the comparison with the previous approach (paper
// Figs 4-20/4-21): our gray-level correlation system — with original DD and
// with the β=0.25 inequality constraint — against the color-feature
// baseline, retrieving waterfalls from the natural-scene database. The
// paper's finding: the approaches perform very close to each other on
// scenes, while ours additionally handles object images (Figs 4-11..4-14).
func Fig420_421(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:     "Fig420_421",
		Title:  "Comparison with the previous approach (retrieving waterfalls)",
		Header: []string{"system", "AP", "prec@recall.3-.4", "P@10", "R@50"},
		Notes:  "paper: our curves are very close to Maron & Lakshmi Ratan's on natural scenes",
	}
	for _, r := range []struct {
		label, kind string
		mode        core.WeightMode
		beta        float64
	}{
		{"ours (original DD)", "scenes", core.Original, 0},
		{"ours (inequality β=0.25)", "scenes", core.SumConstraint, 0.25},
		{"previous approach (color SBN)", "scenes-sbn", core.Original, 0},
		{"previous approach (color rows)", "scenes-rows", core.Original, 0},
	} {
		res, err := runProtocol(cfg, r.kind, "waterfall", feature.Options{}, cfg.trainConfig(r.mode, r.beta))
		if err != nil {
			return nil, err
		}
		ap, window, p10, r50 := summarize(res.TestRanking, "waterfall")
		t.AddRow(r.label, ap, window, p10, r50)
	}
	return []Table{t}, nil
}
