package gray

// Integral is a summed-area table over an image: Sum(x0, y0, x1, y1) of any
// axis-aligned pixel block is computed in O(1). It is the workhorse behind
// the smoothing-and-sampling operator — every output cell is the mean of a
// (2m/h × 2n/h) block (§3.1.2), and with 50% overlap the naive computation
// would touch every pixel ~4 times per resolution level.
type Integral struct {
	w, h int
	// sum has (w+1)×(h+1) entries; sum[(y)*(w+1)+x] is the sum of all
	// pixels strictly above and to the left of (x, y).
	sum []float64
}

// NewIntegral builds the summed-area table for im in one pass.
func NewIntegral(im *Image) *Integral {
	return integral(im.W, im.H, im.Row)
}

// NewSquaresIntegral builds the summed-area table of im's squared pixels —
// the E[x²] of a block variance — without materializing the squared image.
func NewSquaresIntegral(im *Image) *Integral {
	buf := make([]float64, im.W)
	return integral(im.W, im.H, func(y int) []float64 {
		for x, v := range im.Row(y) {
			buf[x] = v * v
		}
		return buf
	})
}

// NewMirrorIntegral builds the summed-area table of im.MirrorLR() without
// materializing the mirror.
func NewMirrorIntegral(im *Image) *Integral {
	buf := make([]float64, im.W)
	return integral(im.W, im.H, func(y int) []float64 {
		src := im.Row(y)
		for x := range buf {
			buf[x] = src[im.W-1-x]
		}
		return buf
	})
}

// integral builds the w×h summed-area table whose pixel row y is row(y).
func integral(w, h int, row func(y int) []float64) *Integral {
	it := &Integral{w: w, h: h, sum: make([]float64, (w+1)*(h+1))}
	stride := w + 1
	for y := 0; y < h; y++ {
		src := row(y)
		var rowSum float64
		base := (y + 1) * stride
		prev := y * stride
		for x := 0; x < w; x++ {
			rowSum += src[x]
			it.sum[base+x+1] = it.sum[prev+x+1] + rowSum
		}
	}
	return it
}

// Sum returns the sum of pixels in the half-open block [x0, x1) × [y0, y1),
// clipped to the image bounds. An empty block sums to 0.
func (it *Integral) Sum(x0, y0, x1, y1 int) float64 {
	x0 = clampInt(x0, 0, it.w)
	x1 = clampInt(x1, 0, it.w)
	y0 = clampInt(y0, 0, it.h)
	y1 = clampInt(y1, 0, it.h)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	stride := it.w + 1
	return it.sum[y1*stride+x1] - it.sum[y0*stride+x1] - it.sum[y1*stride+x0] + it.sum[y0*stride+x0]
}

// Mean returns the mean of pixels in the clipped block [x0, x1) × [y0, y1),
// or 0 for an empty block.
func (it *Integral) Mean(x0, y0, x1, y1 int) float64 {
	x0 = clampInt(x0, 0, it.w)
	x1 = clampInt(x1, 0, it.w)
	y0 = clampInt(y0, 0, it.h)
	y1 = clampInt(y1, 0, it.h)
	n := (x1 - x0) * (y1 - y0)
	if n <= 0 {
		return 0
	}
	return it.Sum(x0, y0, x1, y1) / float64(n)
}
