package feature

import (
	"fmt"
	"image"

	"milret/internal/gray"
	"milret/internal/mil"
)

// BagFromColorImage is the color extension of the pipeline (paper §5: "we
// used RGB values separately and used a similar approach as we did with
// gray-scale images, tripling the number of dimensions of feature
// vectors"). It splits the picture into R, G and B planes scaled to
// [0, 255] and runs the gray pipeline over them: each region is sampled
// per channel and the three standardized h²-vectors are concatenated into
// one 3h² instance. Region selection (the variance filter) operates on the
// luma image exactly as in the gray pipeline, so color and gray bags of the
// same picture keep identical region sets.
//
// The paper observed no significant improvement from this variant; the
// ExtColor experiment reproduces that comparison.
func BagFromColorImage(id string, img image.Image, opts Options) (*mil.Bag, error) {
	if img == nil {
		return nil, fmt.Errorf("feature: color bag %q: nil image", id)
	}
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	luma := gray.New(w, h)
	planes := []*gray.Image{gray.New(w, h), gray.New(w, h), gray.New(w, h)}
	gray.RGBRows(img, func(y int, r, g, bl []uint32) {
		i, j := y*w, (y+1)*w // not Row: a zero-width row is empty
		lr, pr, pg, pb := luma.Pix[i:j], planes[0].Pix[i:j], planes[1].Pix[i:j], planes[2].Pix[i:j]
		for x := range lr {
			lr[x] = gray.Luma(r[x], g[x], bl[x])
			pr[x] = float64(r[x]) / 257
			pg[x] = float64(g[x]) / 257
			pb[x] = float64(bl[x]) / 257
		}
	})
	return bagFromPlanes(id, luma, planes, opts)
}
