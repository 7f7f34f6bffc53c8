// Package gray implements the imaging substrate of the retrieval system:
// a float64 gray-scale image type with RGB→gray conversion, cropping and
// mirroring, an integral image (summed-area table) for O(1) block means, the
// paper's smoothing-and-sampling operator (§3.1.2) and the correlation
// coefficient (§3.1.1). Images come in as image.Image (FromImage); decoding
// files is the caller's business.
package gray

import (
	"fmt"
	"image"
)

// Image is a gray-scale raster with float64 samples stored row-major.
// Pixel (x, y) lives at Pix[y*W+x]. Values are conventionally in [0, 255]
// but any finite real is permitted (intermediate results are not clamped).
type Image struct {
	W, H int
	Pix  []float64
}

// New returns a zeroed w×h image. It panics if either dimension is negative.
func New(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("gray: invalid image dimensions %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// Set stores v at (x, y).
func (im *Image) Set(x, y int, v float64) {
	im.check(x, y)
	im.Pix[y*im.W+x] = v
}

// Row returns row y as a slice aliasing the image storage.
func (im *Image) Row(y int) []float64 {
	im.check(0, y)
	return im.Pix[y*im.W : (y+1)*im.W]
}

// MirrorLR returns the left-right mirror image (§3.2: mirror instances are
// added to every bag because mirrored pictures should be treated as the
// same).
func (im *Image) MirrorLR() *Image {
	out := New(im.W, im.H)
	for y := 0; y < im.H; y++ {
		src := im.Row(y)
		dst := out.Row(y)
		for x := 0; x < im.W; x++ {
			dst[x] = src[im.W-1-x]
		}
	}
	return out
}

// Rotate90 returns the image rotated 90° clockwise: pixel (x, y) of the
// input lands at (H−1−y, x) of the output, whose dimensions are swapped.
func (im *Image) Rotate90() *Image {
	out := New(im.H, im.W)
	for y := 0; y < im.H; y++ {
		row := im.Row(y)
		for x := 0; x < im.W; x++ {
			out.Set(im.H-1-y, x, row[x])
		}
	}
	return out
}

// Rotate180 returns the image rotated 180°.
func (im *Image) Rotate180() *Image {
	out := New(im.W, im.H)
	n := len(im.Pix)
	for i, v := range im.Pix {
		out.Pix[n-1-i] = v
	}
	return out
}

// Rotate270 returns the image rotated 90° counter-clockwise: pixel (x, y)
// lands at (y, W−1−x).
func (im *Image) Rotate270() *Image {
	out := New(im.H, im.W)
	for y := 0; y < im.H; y++ {
		row := im.Row(y)
		for x := 0; x < im.W; x++ {
			out.Set(y, im.W-1-x, row[x])
		}
	}
	return out
}

// FromImage converts any stdlib image to gray scale using the Rec. 601 luma
// weights (0.299 R + 0.587 G + 0.114 B), the conversion in common use when
// the paper was written. The result is scaled to [0, 255].
func FromImage(src image.Image) *Image {
	b := src.Bounds()
	out := New(b.Dx(), b.Dy())
	for y := b.Min.Y; y < b.Max.Y; y++ {
		row := out.Row(y - b.Min.Y)
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bb, _ := src.At(x, y).RGBA() // 16-bit channels
			row[x-b.Min.X] = (0.299*float64(r) + 0.587*float64(g) + 0.114*float64(bb)) / 257.0
		}
	}
	return out
}

func (im *Image) check(x, y int) {
	if x < 0 || x >= im.W || y < 0 || y >= im.H {
		panic(fmt.Sprintf("gray: pixel (%d,%d) out of range %dx%d", x, y, im.W, im.H))
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
