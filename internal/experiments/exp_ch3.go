package experiments

import (
	"fmt"

	"milret/internal/core"
	"milret/internal/eval"
	"milret/internal/feature"
	"milret/internal/gray"
	"milret/internal/mat"
	"milret/internal/region"
	"milret/internal/synth"
)

// Table31 reproduces Table 3.1: correlation coefficients of sample object
// image pairs after smoothing and sampling at h=10. The paper's pairs of
// similar objects score high (0.65–0.84) and its dissimilar pairs low
// (≈0.1–0.22); the same contrast must hold here.
func Table31(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	objects := synth.ObjectsN(cfg.Seed, 2)
	img := map[string]*gray.Image{}
	for _, it := range objects {
		img[it.ID] = gray.FromImage(it.Image)
	}
	pick := func(cat string, i int) *gray.Image {
		return img[fmt.Sprintf("object-%s-%02d", cat, i)]
	}
	pairs := []struct {
		name string
		a, b *gray.Image
	}{
		{"car vs car", pick("car", 0), pick("car", 1)},
		{"camera vs camera", pick("camera", 0), pick("camera", 1)},
		{"pants vs pants", pick("pants", 0), pick("pants", 1)},
		{"hammer vs hammer", pick("hammer", 0), pick("hammer", 1)},
		{"car vs pants", pick("car", 0), pick("pants", 0)},
		{"camera vs hammer", pick("camera", 0), pick("hammer", 0)},
	}
	t := Table{
		ID:     "Table31",
		Title:  "Correlation coefficients of sample image pairs (h=10)",
		Header: []string{"pair", "kind", "corr"},
		Notes:  "paper: similar pairs 0.652-0.838, dissimilar pairs 0.110-0.224",
	}
	for i, p := range pairs {
		kind := "similar"
		if i >= 4 {
			kind = "dissimilar"
		}
		c, err := gray.CorrSampled(p.a, p.b, 10)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.name, kind, c)
	}
	return []Table{t}, nil
}

// Fig33_34 reproduces the Figures 3-3/3-4 demonstration: two complex images
// whose whole-picture correlation is low while the correlation of the right
// pair of sub-regions is high — the motivation for region selection (§3.2).
func Fig33_34(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	// Two waterfall scenes: same concept, different composition.
	scenes := synth.ScenesN(cfg.Seed, 2)
	var a, b *gray.Image
	for _, it := range scenes {
		switch it.ID {
		case "scene-waterfall-000":
			a = gray.FromImage(it.Image)
		case "scene-waterfall-001":
			b = gray.FromImage(it.Image)
		}
	}
	whole, err := gray.CorrSampled(a, b, 10)
	if err != nil {
		return nil, err
	}
	itA, itB := gray.NewIntegral(a), gray.NewIntegral(b)
	best, bestA, bestB := -1.0, "", ""
	sa, sb := mat.NewMatrix(10, 10), mat.NewMatrix(10, 10)
	for _, ra := range region.MustSet(region.Default) {
		ax0, ay0, ax1, ay1 := ra.Pixels(a.W, a.H)
		if err := gray.SmoothSampleRect(sa, itA, ax0, ay0, ax1, ay1); err != nil {
			return nil, err
		}
		for _, rb := range region.MustSet(region.Default) {
			bx0, by0, bx1, by1 := rb.Pixels(b.W, b.H)
			if err := gray.SmoothSampleRect(sb, itB, bx0, by0, bx1, by1); err != nil {
				return nil, err
			}
			if c := gray.Corr(sa, sb); c > best {
				best, bestA, bestB = c, ra.Name, rb.Name
			}
		}
	}
	t := Table{
		ID:     "Fig33_34",
		Title:  "Whole-image vs best region-pair correlation on complex images",
		Header: []string{"comparison", "corr"},
		Notes:  "paper: whole images 0.118, marked regions 0.674",
	}
	t.AddRow("whole image vs whole image", whole)
	t.AddRow(fmt.Sprintf("best region pair (%s vs %s)", bestA, bestB), best)
	return []Table{t}, nil
}

// Fig37_39 reproduces the DD-output comparison of Figures 3-7/3-8/3-9: the
// learned weight vectors under the original DD, identical weights and the
// β=0.5 inequality constraint on the same waterfall task. The headline
// behaviour: original DD leaves only a few large weights (most near zero);
// the constraint keeps at least half of the total weight mass; identical
// weights are all exactly one.
func Fig37_39(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	pool, _, err := splitCorpus(cfg, "scenes", feature.Options{})
	if err != nil {
		return nil, err
	}
	// 5 positive waterfalls + 5 negatives, as in Figure 3-6.
	ds := datasetForTarget(pool.Items(), "waterfall", 5, 5)
	t := Table{
		ID:     "Fig37_39",
		Title:  "DD output weight statistics under the three weight schemes (waterfall task)",
		Header: []string{"mode", "w_min", "w_mean", "w_max", "frac<0.05", "sum(w)/n", "-logDD"},
		Notes:  "paper: original DD pushes most weights near zero (Fig 3-7); identical weights all 1 (Fig 3-8); inequality beta=0.5 keeps half the mass (Fig 3-9)",
	}
	for _, m := range []struct {
		mode core.WeightMode
		beta float64
	}{
		{core.Original, 0},
		{core.Identical, 0},
		{core.SumConstraint, 0.5},
	} {
		concept, err := core.Train(ds, cfg.trainConfig(m.mode, m.beta))
		if err != nil {
			return nil, err
		}
		w := concept.Weights
		minW, _ := w.Min()
		maxW, _ := w.Max()
		nearZero := 0
		for _, v := range w {
			if v < 0.05 {
				nearZero++
			}
		}
		t.AddRow(m.mode.String(), minW, w.Mean(), maxW,
			float64(nearZero)/float64(len(w)), w.Sum()/float64(len(w)), concept.NegLogDD)
	}
	return []Table{t}, nil
}

// prSeries condenses a ranking into the fixed-grid series the figure tables
// print: recall at retrieval depths and precision at recall levels.
func prSeries(results []eval.PRPoint) [][2]float64 {
	grid := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	out := make([][2]float64, 0, len(grid))
	for _, g := range grid {
		p := 0.0
		for _, pt := range results {
			if pt.Recall >= g {
				p = pt.Precision
				break
			}
		}
		out = append(out, [2]float64{g, p})
	}
	return out
}
