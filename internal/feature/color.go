package feature

import (
	"fmt"
	"image"

	"milret/internal/gray"
	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/region"
)

// BagFromColorImage is the color extension of the pipeline (paper §5: "we
// used RGB values separately and used a similar approach as we did with
// gray-scale images, tripling the number of dimensions of feature
// vectors"). Each region is sampled per channel and the three standardized
// h²-vectors are concatenated into one 3h² instance. Region selection (the
// variance filter) operates on the luma image exactly as in the gray
// pipeline, so color and gray bags of the same picture keep identical
// region sets.
//
// The paper observed no significant improvement from this variant; the
// ExtColor experiment reproduces that comparison.
func BagFromColorImage(id string, img image.Image, opts Options) (*mil.Bag, error) {
	opts = opts.withDefaults()
	if img == nil {
		return nil, fmt.Errorf("feature: color bag %q: nil image", id)
	}
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("feature: color bag %q: empty image", id)
	}
	regions, err := region.Set(opts.Regions)
	if err != nil {
		return nil, fmt.Errorf("feature: color bag %q: %w", id, err)
	}

	// Channel planes scaled to [0, 255], plus luma for the variance filter.
	var chans [3]*gray.Image
	for i := range chans {
		chans[i] = gray.New(w, h)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, bb, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			chans[0].Set(x, y, float64(r)/257)
			chans[1].Set(x, y, float64(g)/257)
			chans[2].Set(x, y, float64(bb)/257)
		}
	}
	luma := gray.FromImage(img)
	itLuma := gray.NewIntegral(luma)
	sq := gray.New(w, h)
	for i, v := range luma.Pix {
		sq.Pix[i] = v * v
	}
	itSq := gray.NewIntegral(sq)

	var its, itsM [3]*gray.Integral
	for i, ch := range chans {
		its[i] = gray.NewIntegral(ch)
		itsM[i] = gray.NewIntegral(ch.MirrorLR())
	}

	bag := &mil.Bag{ID: id}
	addInstance := func(ms [3]*mat.Matrix, name string) {
		inst := make(mat.Vector, 0, 3*opts.Resolution*opts.Resolution)
		for _, m := range ms {
			inst = append(inst, m.Flatten().Standardize()...)
		}
		bag.Instances = append(bag.Instances, inst)
		bag.Names = append(bag.Names, name)
	}
	sampleRegion := func(r region.Rect) error {
		x0, y0, x1, y1 := r.Pixels(w, h)
		var ms [3]*mat.Matrix
		for i := range its {
			m, err := gray.SmoothSampleRect(its[i], x0, y0, x1, y1, opts.Resolution)
			if err != nil {
				return err
			}
			ms[i] = m
		}
		addInstance(ms, r.Name)
		mx0, mx1 := w-x1, w-x0
		var mm [3]*mat.Matrix
		for i := range itsM {
			m, err := gray.SmoothSampleRect(itsM[i], mx0, y0, mx1, y1, opts.Resolution)
			if err != nil {
				return err
			}
			mm[i] = m
		}
		addInstance(mm, r.Name+"-lr")
		return nil
	}

	for _, r := range regions {
		x0, y0, x1, y1 := r.Pixels(w, h)
		n := float64((x1 - x0) * (y1 - y0))
		mean := itLuma.Sum(x0, y0, x1, y1) / n
		variance := itSq.Sum(x0, y0, x1, y1)/n - mean*mean
		if variance < region.DefaultVarianceThreshold {
			continue
		}
		if err := sampleRegion(r); err != nil {
			return nil, fmt.Errorf("feature: color bag %q region %s: %w", id, r.Name, err)
		}
	}
	if len(bag.Instances) == 0 {
		whole := region.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1, Name: "a-whole"}
		if err := sampleRegion(whole); err != nil {
			return nil, fmt.Errorf("feature: color bag %q fallback: %w", id, err)
		}
	}
	if err := bag.Validate(); err != nil {
		return nil, err
	}
	return bag, nil
}
