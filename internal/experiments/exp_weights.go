package experiments

import (
	"fmt"

	"milret/internal/core"
	"milret/internal/feature"
)

// weightModeRow captures one weight-control scheme for the comparison
// figures.
type weightModeRow struct {
	label string
	mode  core.WeightMode
	beta  float64
}

func standardModes(beta float64) []weightModeRow {
	return []weightModeRow{
		{"original DD", core.Original, 0},
		{"identical weights", core.Identical, 0},
		{fmt.Sprintf("inequality β=%.2f", beta), core.SumConstraint, beta},
	}
}

// weightModeComparison runs the full §4.1 protocol once per weight scheme
// on one category and tabulates the ranking summaries — the substance of
// Figures 4-8 through 4-14.
func weightModeComparison(cfg Config, id, kind, target string, rows []weightModeRow) ([]Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:     id,
		Title:  fmt.Sprintf("Retrieving %s images: weight-control schemes (test-set ranking)", target),
		Header: []string{"scheme", "AP", "prec@recall.3-.4", "P@10", "R@50"},
	}
	for _, row := range rows {
		res, err := runProtocol(cfg, kind, target, feature.Options{},
			cfg.trainConfig(row.mode, row.beta))
		if err != nil {
			return nil, err
		}
		ap, window, p10, r50 := summarize(res.TestRanking, target)
		t.AddRow(row.label, ap, window, p10, r50)
	}
	return []Table{t}, nil
}

// Fig48 compares weight schemes retrieving waterfalls (paper Fig 4-8).
func Fig48(cfg Config) ([]Table, error) {
	return weightModeComparison(cfg, "Fig48", "scenes", "waterfall", standardModes(0.5))
}

// Fig49 compares weight schemes retrieving fields (paper Fig 4-9).
func Fig49(cfg Config) ([]Table, error) {
	return weightModeComparison(cfg, "Fig49", "scenes", "field", standardModes(0.5))
}

// Fig410 compares weight schemes retrieving sunsets/sunrises (paper
// Fig 4-10).
func Fig410(cfg Config) ([]Table, error) {
	return weightModeComparison(cfg, "Fig410", "scenes", "sunset", standardModes(0.5))
}

// Fig411 compares weight schemes retrieving cars (paper Fig 4-11).
func Fig411(cfg Config) ([]Table, error) {
	return weightModeComparison(cfg, "Fig411", "objects", "car", standardModes(0.5))
}

// Fig412 compares weight schemes retrieving pants (paper Fig 4-12).
func Fig412(cfg Config) ([]Table, error) {
	return weightModeComparison(cfg, "Fig412", "objects", "pants", standardModes(0.5))
}

// Fig413 compares weight schemes retrieving airplanes (paper Fig 4-13).
func Fig413(cfg Config) ([]Table, error) {
	return weightModeComparison(cfg, "Fig413", "objects", "airplane", standardModes(0.5))
}

// Fig414 repeats the car comparison with β=0.25, where the paper found the
// inequality constraint recovers (paper Fig 4-14).
func Fig414(cfg Config) ([]Table, error) {
	rows := append(standardModes(0.5), weightModeRow{"inequality β=0.25", core.SumConstraint, 0.25})
	return weightModeComparison(cfg, "Fig414", "objects", "car", rows)
}

// Fig415_417 sweeps β in the inequality constraint on the sunset task
// (paper Figs 4-15/4-16/4-17). As β→0 the curve should approach original
// DD; as β→1 it should approach identical weights.
func Fig415_417(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:     "Fig415_417",
		Title:  "Changing β in the inequality constraint (sunset task)",
		Header: []string{"scheme", "AP", "prec@recall.3-.4", "P@10"},
		Notes:  "β→0 approaches original DD; β→1 approaches identical weights (§4.2.1)",
	}
	run := func(label string, mode core.WeightMode, beta float64) error {
		res, err := runProtocol(cfg, "scenes", "sunset", feature.Options{},
			cfg.trainConfig(mode, beta))
		if err != nil {
			return err
		}
		ap, window, p10, _ := summarize(res.TestRanking, "sunset")
		t.AddRow(label, ap, window, p10)
		return nil
	}
	if err := run("original DD", core.Original, 0); err != nil {
		return nil, err
	}
	for _, beta := range []float64{0.0, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.9, 1.0} {
		if err := run(fmt.Sprintf("inequality β=%.1f", beta), core.SumConstraint, beta); err != nil {
			return nil, err
		}
	}
	if err := run("identical weights", core.Identical, 0); err != nil {
		return nil, err
	}
	return []Table{t}, nil
}
