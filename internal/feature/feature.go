// Package feature implements the image-to-bag preprocessing pipeline of
// §3.5:
//
//  1. convert to gray scale (callers hand in a gray.Image, converting with
//     gray.FromImage when the source is color) — or, for the §5 colour
//     variant (BagFromColorImage), split the picture into R, G and B planes
//     and run every later step on each plane;
//  2. select regions from the configured family (§3.2) and drop those whose
//     pixel variance falls below a threshold;
//  3. extract two sub-pictures per surviving region — the region itself and
//     its left-right mirror — and smooth-and-sample each to an h×h matrix
//     (§3.1.2);
//  4. standardize every h²-vector by subtracting its mean and dividing by
//     its standard deviation, so weighted Euclidean distance reproduces the
//     weighted-correlation ranking (§3.4; at preprocessing time all weights
//     are one), and concatenate a region's per-plane vectors;
//  5. collect the vectors into the image's bag.
package feature

import (
	"fmt"

	"milret/internal/gray"
	"milret/internal/mat"
	"milret/internal/mil"
	"milret/internal/region"
)

// Options configures bag generation. The zero value reproduces the paper's
// default setup: 20 regions with mirrors (40 instances), 10×10 sampling
// (100-dimensional features). Regions whose pixel variance falls below
// region.DefaultVarianceThreshold are dropped (§3.2), and every kept region
// contributes its left-right mirror too.
type Options struct {
	// Resolution is the sampling size h (default gray.DefaultResolution,
	// i.e. 10). Figure 4-19 sweeps {6, 10, 15}.
	Resolution int
	// Regions selects the region family (default region.Default, 20
	// regions). Figure 4-18 sweeps {Small, Default, Large}.
	Regions region.SetSize
	// Rotations adds the 90°/180°/270° rotations of every kept instance
	// (paper §5 future work: extra instances representing different
	// viewing angles, at the cost of a 4× larger bag). Each rotation is
	// sampled from the rotated picture so the instances are exact.
	Rotations bool
}

func (o Options) withDefaults() Options {
	if o.Resolution <= 0 {
		o.Resolution = gray.DefaultResolution
	}
	if o.Regions == 0 {
		o.Regions = region.Default
	}
	return o
}

// Dim returns the feature dimensionality the options produce (h²).
func (o Options) Dim() int {
	o = o.withDefaults()
	return o.Resolution * o.Resolution
}

// MaxInstances returns the largest possible bag size under o.
func (o Options) MaxInstances() int {
	o = o.withDefaults()
	n := 2 * int(o.Regions) // every region and its mirror
	if o.Rotations {
		n *= 4
	}
	return n
}

// BagFromImage runs the full §3.5 pipeline on one image. The returned bag
// always contains at least one instance: if every region fails the variance
// filter (a nearly blank image), the whole-image region is kept as a
// fallback so the image still participates in ranking.
func BagFromImage(id string, im *gray.Image, opts Options) (*mil.Bag, error) {
	return bagFromPlanes(id, im, []*gray.Image{im}, opts)
}

// bagFromPlanes is the §3.5 pipeline over one or more sample planes of the
// same size: regions are selected by the variance of luma, and every
// variant of every surviving region is sampled from each plane, each
// sample standardized on its own, and the samples concatenated in plane
// order into one instance. A single plane is the gray pipeline; the RGB
// planes are the colour variant.
func bagFromPlanes(id string, luma *gray.Image, planes []*gray.Image, opts Options) (*mil.Bag, error) {
	opts = opts.withDefaults()
	if luma == nil || luma.W < 1 || luma.H < 1 {
		return nil, fmt.Errorf("feature: bag %q: empty image", id)
	}
	regions, err := region.Set(opts.Regions)
	if err != nil {
		return nil, fmt.Errorf("feature: bag %q: %w", id, err)
	}

	// One integral image of luma serves every region's mean (and, for a
	// gray bag, the identity variant's samples), and one over its squares
	// serves the variance filter: Var = E[x²] − E[x]².
	it := gray.NewIntegral(luma)
	itSq := gray.NewSquaresIntegral(luma)

	// Every geometric variant (mirror, rotations, their compositions) is
	// realized by one integral image per plane over the transformed picture
	// plus a pixel-rect transform, so each variant instance is the exact
	// smoothing and sampling of the transformed sub-picture — rotating or
	// mirroring the sampled matrix instead would be off by half a kernel
	// block, because the 50%-overlap grid does not commute with the
	// transforms.
	variants := buildVariants(planes, luma, it, opts)

	kept := make([]region.Rect, 0, len(regions))
	for _, r := range regions {
		x0, y0, x1, y1 := r.Pixels(luma.W, luma.H)
		n := float64((x1 - x0) * (y1 - y0))
		mean := it.Sum(x0, y0, x1, y1) / n
		variance := itSq.Sum(x0, y0, x1, y1)/n - float64(mean*mean)
		if variance < region.DefaultVarianceThreshold {
			continue
		}
		kept = append(kept, r)
	}
	if len(kept) == 0 {
		// Blank-image fallback: keep the whole picture so the bag is valid
		// and the image remains rankable (it will simply match poorly).
		kept = append(kept, region.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1, Name: "a-whole"})
	}

	// Every sample is taken and standardized in its instance's slot of one
	// block for the whole bag, through one matrix header.
	sample := &mat.Matrix{Rows: opts.Resolution, Cols: opts.Resolution}
	part := opts.Resolution * opts.Resolution
	dim, n := len(planes)*part, len(kept)*len(variants)
	block := make([]float64, n*dim)
	bag := &mil.Bag{ID: id, Instances: make([]mat.Vector, 0, n), Names: make([]string, 0, n)}
	for _, r := range kept {
		x0, y0, x1, y1 := r.Pixels(luma.W, luma.H)
		for _, v := range variants {
			vx0, vy0, vx1, vy1 := v.rect(x0, y0, x1, y1)
			k := len(bag.Instances)
			inst := block[k*dim : (k+1)*dim : (k+1)*dim]
			for i, pit := range v.its {
				sample.Data = inst[i*part : (i+1)*part]
				if err := gray.SmoothSampleRect(sample, pit, vx0, vy0, vx1, vy1); err != nil {
					return nil, fmt.Errorf("feature: bag %q region %s: %w", id, r.Name, err)
				}
				sample.Flatten().Standardize()
			}
			bag.Instances = append(bag.Instances, inst)
			bag.Names = append(bag.Names, r.Name+v.suffix)
		}
	}
	if err := bag.Validate(); err != nil {
		return nil, err
	}
	return bag, nil
}

// variant couples one integral image per plane over a transformed copy of
// the picture with the matching pixel-rect transform.
type variant struct {
	its    []*gray.Integral
	rect   func(x0, y0, x1, y1 int) (int, int, int, int)
	suffix string
}

// buildVariants prepares the geometric instance variants: the identity,
// the left-right mirror (§3.2), and optionally the three quarter-turn
// rotations of each (paper §5 future work). W and H refer to the original
// picture. A plane that is luma itself reuses lumaIt for the identity, and
// the mirror's integrals are built straight from the planes; only the
// rotations materialize transformed pictures.
func buildVariants(planes []*gray.Image, luma *gray.Image, lumaIt *gray.Integral, opts Options) []variant {
	w, h := planes[0].W, planes[0].H
	ident := func(x0, y0, x1, y1 int) (int, int, int, int) { return x0, y0, x1, y1 }
	mirror := func(x0, y0, x1, y1 int) (int, int, int, int) { return w - x1, y0, w - x0, y1 }
	// Rect images under clockwise rotation (pixel (x,y) → (H−1−y, x)):
	// the region [x0,x1)×[y0,y1) becomes [H−y1,H−y0)×[x0,x1).
	rot90 := func(x0, y0, x1, y1 int) (int, int, int, int) { return h - y1, x0, h - y0, x1 }
	rot180 := func(x0, y0, x1, y1 int) (int, int, int, int) { return w - x1, h - y1, w - x0, h - y0 }
	rot270 := func(x0, y0, x1, y1 int) (int, int, int, int) { return y0, w - x1, y1, w - x0 }
	compose := func(f, g func(int, int, int, int) (int, int, int, int)) func(int, int, int, int) (int, int, int, int) {
		return func(x0, y0, x1, y1 int) (int, int, int, int) {
			return g(f(x0, y0, x1, y1))
		}
	}
	// integrals returns the integral image of every picture after transform.
	integrals := func(pics []*gray.Image, transform func(*gray.Image) *gray.Image) []*gray.Integral {
		its := make([]*gray.Integral, len(pics))
		for i, p := range pics {
			its[i] = gray.NewIntegral(transform(p))
		}
		return its
	}

	identIts := make([]*gray.Integral, len(planes))
	mirrorIts := make([]*gray.Integral, len(planes))
	for i, p := range planes {
		identIts[i] = lumaIt
		if p != luma {
			identIts[i] = gray.NewIntegral(p)
		}
		mirrorIts[i] = gray.NewMirrorIntegral(p)
	}
	variants := []variant{
		{identIts, ident, ""},
		{mirrorIts, mirror, "-lr"},
	}
	if opts.Rotations {
		// The mirrored picture has the same dimensions, so the same
		// rotation transforms apply after the mirror transform.
		mirrored := make([]*gray.Image, len(planes))
		for i, p := range planes {
			mirrored[i] = p.MirrorLR()
		}
		variants = append(variants,
			variant{integrals(planes, (*gray.Image).Rotate90), rot90, "-r90"},
			variant{integrals(planes, (*gray.Image).Rotate180), rot180, "-r180"},
			variant{integrals(planes, (*gray.Image).Rotate270), rot270, "-r270"},
			variant{integrals(mirrored, (*gray.Image).Rotate90), compose(mirror, rot90), "-lr-r90"},
			variant{integrals(mirrored, (*gray.Image).Rotate180), compose(mirror, rot180), "-lr-r180"},
			variant{integrals(mirrored, (*gray.Image).Rotate270), compose(mirror, rot270), "-lr-r270"},
		)
	}
	return variants
}
