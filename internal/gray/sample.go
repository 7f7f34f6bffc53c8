package gray

import (
	"fmt"
	"math"

	"milret/internal/mat"
)

// DefaultResolution is the sampling resolution h used in most of the
// paper's experiments (§3.1.2): regions are reduced to 10×10 matrices,
// i.e. 100-dimensional feature vectors.
const DefaultResolution = 10

// SmoothSample reduces im to an h×h matrix by smoothing with a
// (2·H/h × 2·W/h) averaging kernel and sub-sampling (§3.1.2, Figure 3-2).
// Output cell (i, j) is the mean gray level of the fractional pixel block
//
//	rows [i·H/h, (i+2)·H/h) × cols [j·W/h, (j+2)·W/h)
//
// clipped to the image, so every block overlaps each of its neighbours by
// 50%, which is what makes the downstream correlation measure tolerant to
// small shifts. Block means are read from an integral image in O(1), so the
// whole reduction is O(W·H + h²).
//
// It panics if h <= 0; it returns an error if the image is smaller than 1×1.
func SmoothSample(im *Image, h int) (*mat.Matrix, error) {
	if h <= 0 {
		panic(fmt.Sprintf("gray: non-positive sampling resolution %d", h))
	}
	if im.W < 1 || im.H < 1 {
		return nil, fmt.Errorf("gray: cannot sample empty %dx%d image to %dx%d", im.W, im.H, h, h)
	}
	out := mat.NewMatrix(h, h)
	smoothSampleRect(out, NewIntegral(im), 0, 0, im.W, im.H)
	return out, nil
}

// SmoothSampleRect samples the sub-rectangle [x0, x1) × [y0, y1) of the
// image underlying it into out (h×h for the §3.1.2 sampling), using the
// same 50%-overlap averaging kernel. This is the hot path of bag generation:
// one integral image per picture serves all regions, and one matrix every
// sample.
func SmoothSampleRect(out *mat.Matrix, it *Integral, x0, y0, x1, y1 int) error {
	if x1 <= x0 || y1 <= y0 {
		return fmt.Errorf("gray: empty sampling rectangle [%d,%d)x[%d,%d)", x0, x1, y0, y1)
	}
	smoothSampleRect(out, it, x0, y0, x1-x0, y1-y0)
	return nil
}

// smoothSampleRect writes every cell of out as Integral.Mean would read it:
// the block bounds clamped to the table, the four corners summed in Sum's
// order and divided by the clamped pixel count, with 0 for an empty block.
// The column bounds are the same in every row, so they are computed once.
func smoothSampleRect(out *mat.Matrix, it *Integral, x0, y0, w, hh int) {
	fy := float64(hh) / float64(out.Rows)
	fx := float64(w) / float64(out.Cols)
	var stack [64]int // the bounds of ≤ 32 columns, without an allocation per sample
	cols := stack[:0]
	if 2*out.Cols > len(stack) {
		cols = make([]int, 0, 2*out.Cols)
	}
	for j := 0; j < out.Cols; j++ {
		c0 := x0 + int(math.Floor(float64(j)*fx))
		c1 := x0 + int(math.Ceil(float64(j+2)*fx))
		if c1 > x0+w {
			c1 = x0 + w
		}
		if c1 <= c0 {
			c1 = c0 + 1
		}
		cols = append(cols, clampInt(c0, 0, it.w), clampInt(c1, 0, it.w))
	}
	stride := it.w + 1
	for i := 0; i < out.Rows; i++ {
		r0 := y0 + int(math.Floor(float64(i)*fy))
		r1 := y0 + int(math.Ceil(float64(i+2)*fy))
		if r1 > y0+hh {
			r1 = y0 + hh
		}
		if r1 <= r0 { // degenerate when source smaller than target
			r1 = r0 + 1
		}
		r0, r1 = clampInt(r0, 0, it.h), clampInt(r1, 0, it.h)
		top, bot := it.sum[r0*stride:], it.sum[r1*stride:]
		row := out.Row(i)
		for j := range row {
			c0, c1 := cols[2*j], cols[2*j+1]
			row[j] = 0
			if n := (c1 - c0) * (r1 - r0); n > 0 {
				row[j] = (bot[c1] - top[c1] - bot[c0] + top[c0]) / float64(n)
			}
		}
	}
}
