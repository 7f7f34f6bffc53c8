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
	planes := []*gray.Image{gray.New(w, h), gray.New(w, h), gray.New(w, h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r, g, bb, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			planes[0].Set(x, y, float64(r)/257)
			planes[1].Set(x, y, float64(g)/257)
			planes[2].Set(x, y, float64(bb)/257)
		}
	}
	return bagFromPlanes(id, gray.FromImage(img), planes, opts)
}
