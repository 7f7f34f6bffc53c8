// Package synth generates the synthetic image corpora that stand in for the
// paper's data (§4.1): a 500-image natural-scene database (100 each of
// waterfalls, mountains, fields, lakes/rivers and sunsets/sunrises,
// replacing the COREL library) and a 228-image object database (19
// categories × 12, replacing the images scraped from retail websites).
//
// The generators are procedural and fully deterministic for a given seed.
// Scene categories differ in spatial gray-level structure — which is all the
// retrieval algorithm consumes — while carrying heavy per-image jitter and
// noisy backgrounds; object images have uniform backgrounds and low
// intra-class variation, the two properties the paper credits for the
// object-database results.
package synth

import (
	"image"
	"image/color"
	"math"
	"math/rand"
)

// RGB is a floating-point color with channels conventionally in [0, 255].
type RGB [3]float64

// Scale returns the color scaled by f.
func (c RGB) Scale(f float64) RGB {
	return RGB{c[0] * f, c[1] * f, c[2] * f}
}

// Add returns the channel-wise sum of two colors.
func (c RGB) Add(o RGB) RGB {
	return RGB{c[0] + o[0], c[1] + o[1], c[2] + o[2]}
}

// Lerp linearly interpolates between c and o: t=0 gives c, t=1 gives o.
func (c RGB) Lerp(o RGB, t float64) RGB {
	return RGB{
		c[0] + (o[0]-c[0])*t,
		c[1] + (o[1]-c[1])*t,
		c[2] + (o[2]-c[2])*t,
	}
}

// Canvas is a float-valued RGB raster the generators paint on before
// quantizing to an 8-bit image.
type Canvas struct {
	W, H int
	Pix  []RGB // row-major
}

// NewCanvas returns a canvas filled with col.
func NewCanvas(w, h int, col RGB) *Canvas {
	c := &Canvas{W: w, H: h, Pix: make([]RGB, w*h)}
	for i := range c.Pix {
		c.Pix[i] = col
	}
	return c
}

// At returns the color at (x, y); out-of-bounds reads return black.
func (c *Canvas) At(x, y int) RGB {
	if x < 0 || x >= c.W || y < 0 || y >= c.H {
		return RGB{}
	}
	return c.Pix[y*c.W+x]
}

// Set paints (x, y); out-of-bounds writes are ignored, so shapes may
// overhang the canvas freely.
func (c *Canvas) Set(x, y int, col RGB) {
	if x < 0 || x >= c.W || y < 0 || y >= c.H {
		return
	}
	c.Pix[y*c.W+x] = col
}

// FillRect paints the half-open rectangle [x0,x1)×[y0,y1).
func (c *Canvas) FillRect(x0, y0, x1, y1 int, col RGB) {
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			c.Set(x, y, col)
		}
	}
}

// FillCircle paints a filled disk.
func (c *Canvas) FillCircle(cx, cy, r float64, col RGB) {
	x0, x1 := int(cx-r)-1, int(cx+r)+1
	y0, y1 := int(cy-r)-1, int(cy+r)+1
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			if dx*dx+dy*dy <= r*r {
				c.Set(x, y, col)
			}
		}
	}
}

// RingCircle paints a circle outline of the given stroke width.
func (c *Canvas) RingCircle(cx, cy, r, stroke float64, col RGB) {
	x0, x1 := int(cx-r)-1, int(cx+r)+1
	y0, y1 := int(cy-r)-1, int(cy+r)+1
	inner := (r - stroke) * (r - stroke)
	outer := r * r
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			d := dx*dx + dy*dy
			if d <= outer && d >= inner {
				c.Set(x, y, col)
			}
		}
	}
}

// FillTriangle paints the triangle with the given vertices using a
// half-plane test.
func (c *Canvas) FillTriangle(x1, y1, x2, y2, x3, y3 float64, col RGB) {
	minX := int(math.Floor(math.Min(x1, math.Min(x2, x3))))
	maxX := int(math.Ceil(math.Max(x1, math.Max(x2, x3))))
	minY := int(math.Floor(math.Min(y1, math.Min(y2, y3))))
	maxY := int(math.Ceil(math.Max(y1, math.Max(y2, y3))))
	edge := func(ax, ay, bx, by, px, py float64) float64 {
		return (bx-ax)*(py-ay) - (by-ay)*(px-ax)
	}
	area := edge(x1, y1, x2, y2, x3, y3)
	if area == 0 {
		return
	}
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x)+0.5, float64(y)+0.5
			w1 := edge(x1, y1, x2, y2, px, py) / area
			w2 := edge(x2, y2, x3, y3, px, py) / area
			w3 := edge(x3, y3, x1, y1, px, py) / area
			if w1 >= 0 && w2 >= 0 && w3 >= 0 {
				c.Set(x, y, col)
			}
		}
	}
}

// Line paints a thick line segment.
func (c *Canvas) Line(x0, y0, x1, y1, width float64, col RGB) {
	dx, dy := x1-x0, y1-y0
	length := math.Hypot(dx, dy)
	if length == 0 {
		c.FillCircle(x0, y0, width/2, col)
		return
	}
	steps := int(length*2) + 1
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		c.FillCircle(x0+dx*t, y0+dy*t, width/2, col)
	}
}

// VGradient paints rows y0..y1 with a vertical color gradient.
func (c *Canvas) VGradient(y0, y1 int, top, bottom RGB) {
	if y1 <= y0 {
		return
	}
	for y := y0; y < y1; y++ {
		t := float64(y-y0) / float64(y1-y0-1+1)
		col := top.Lerp(bottom, t)
		for x := 0; x < c.W; x++ {
			c.Set(x, y, col)
		}
	}
}

// AddNoise perturbs every pixel with independent Gaussian noise of the
// given standard deviation (applied equally to all channels, preserving
// hue on average).
func (c *Canvas) AddNoise(r *rand.Rand, sigma float64) {
	for i := range c.Pix {
		n := r.NormFloat64() * sigma
		c.Pix[i] = c.Pix[i].Add(RGB{n, n, n})
	}
}

// AddSmoothNoise adds value noise with the given cell size and amplitude:
// a coarse random grid interpolated bilinearly, which produces the blotchy
// low-frequency variation of natural backgrounds.
func (c *Canvas) AddSmoothNoise(r *rand.Rand, cell int, amp float64) {
	if cell < 1 {
		cell = 1
	}
	gw := c.W/cell + 2
	gh := c.H/cell + 2
	grid := make([]float64, gw*gh)
	for i := range grid {
		grid[i] = (r.Float64()*2 - 1) * amp
	}
	for y := 0; y < c.H; y++ {
		fy := float64(y) / float64(cell)
		gy := int(fy)
		ty := fy - float64(gy)
		for x := 0; x < c.W; x++ {
			fx := float64(x) / float64(cell)
			gx := int(fx)
			tx := fx - float64(gx)
			v00 := grid[gy*gw+gx]
			v10 := grid[gy*gw+gx+1]
			v01 := grid[(gy+1)*gw+gx]
			v11 := grid[(gy+1)*gw+gx+1]
			v := v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
			i := y*c.W + x
			c.Pix[i] = c.Pix[i].Add(RGB{v, v, v})
		}
	}
}

// MirrorLR flips the canvas left-right in place.
func (c *Canvas) MirrorLR() {
	for y := 0; y < c.H; y++ {
		row := c.Pix[y*c.W : (y+1)*c.W]
		for i, j := 0, c.W-1; i < j; i, j = i+1, j-1 {
			row[i], row[j] = row[j], row[i]
		}
	}
}

// ToRGBA quantizes the canvas to an 8-bit stdlib image.
func (c *Canvas) ToRGBA() *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, c.W, c.H))
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			p := c.Pix[y*c.W+x]
			out.SetRGBA(x, y, color.RGBA{
				R: clampByte(p[0]),
				G: clampByte(p[1]),
				B: clampByte(p[2]),
				A: 255,
			})
		}
	}
	return out
}

func clampByte(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}
