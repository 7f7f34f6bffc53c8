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
	"image/color"
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
// weights (Luma), the conversion in common use when the paper was written.
// The result is scaled to [0, 255].
func FromImage(src image.Image) *Image {
	b := src.Bounds()
	out := New(b.Dx(), b.Dy())
	RGBRows(src, func(y int, r, g, bl []uint32) {
		row := out.Pix[y*out.W : (y+1)*out.W] // not Row: a zero-width row is empty
		for x := range row {
			row[x] = Luma(r[x], g[x], bl[x])
		}
	})
	return out
}

// Luma is the Rec. 601 gray level (0.299 R + 0.587 G + 0.114 B) of 16-bit
// channels, scaled to [0, 255]. Every product is rounded on its own, so the
// result is the same on hosts that fuse multiply-adds.
func Luma(r, g, b uint32) float64 {
	return (float64(0.299*float64(r)) + float64(0.587*float64(g)) + float64(0.114*float64(b))) / 257.0
}

// RGBRows calls row once for every row of src, top to bottom, with the
// row's index counted from 0 and the 16-bit R, G and B channels of its
// pixels: exactly what src.At(x, y).RGBA() returns. An *image.RGBA (what
// synth draws and what png.Decode returns for an opaque 8-bit colour PNG)
// is read straight from its Pix rows into color.RGBA, whose RGBA method
// computes the channels without boxing a color per pixel; every other type
// goes through At. The channel slices are reused from one call to the next.
func RGBRows(src image.Image, row func(y int, r, g, b []uint32)) {
	bd := src.Bounds()
	w := bd.Dx()
	buf := make([]uint32, 3*w)
	r, g, b := buf[:w], buf[w:2*w], buf[2*w:]
	for y := bd.Min.Y; y < bd.Max.Y; y++ {
		if s, ok := src.(*image.RGBA); ok {
			pix := s.Pix[s.PixOffset(bd.Min.X, y):][:4*w]
			for i := range r {
				p := pix[4*i : 4*i+4 : 4*i+4]
				r[i], g[i], b[i], _ = color.RGBA{p[0], p[1], p[2], p[3]}.RGBA()
			}
		} else {
			for i := range r {
				r[i], g[i], b[i], _ = src.At(bd.Min.X+i, y).RGBA()
			}
		}
		row(y-bd.Min.Y, r, g, b)
	}
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
